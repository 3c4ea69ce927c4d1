package serve

import (
	"sync"
	"testing"

	"facil/internal/engine"
	"facil/internal/llm"
	"facil/internal/soc"
)

// servingSystem returns a shared engine.System: it is immutable and
// goroutine-safe, so every test reuses one instance and its memoized
// latency caches instead of paying a cold build each.
var servingOnce = struct {
	sync.Once
	s   *engine.System
	err error
}{}

func servingSystem(t testing.TB) *engine.System {
	t.Helper()
	servingOnce.Do(func() {
		servingOnce.s, servingOnce.err = engine.NewSystem(soc.IPhone, llm.Phi1_5(), engine.DefaultConfig())
	})
	if servingOnce.err != nil {
		t.Fatal(servingOnce.err)
	}
	return servingOnce.s
}

// The tests below pin the single-device FCFS queue: Serial mode on one
// replica, the configuration the serving experiment runs.

func TestSimulateBasics(t *testing.T) {
	s := servingSystem(t)
	m, err := Run(s, simConfig(Serial, engine.FACIL, 0.05))
	if err != nil {
		t.Fatal(err)
	}
	if m.TTFT.Mean <= 0 || m.TTLT.Mean <= m.TTFT.Mean {
		t.Errorf("latencies implausible: %+v", m)
	}
	if m.SoCUtilization <= 0 || m.SoCUtilization > 1 {
		t.Errorf("utilization = %g", m.SoCUtilization)
	}
	if m.TTFT.P99 < m.TTFT.Mean {
		t.Errorf("p99 %.3f below mean %.3f", m.TTFT.P99, m.TTFT.Mean)
	}
	if m.MaxQueueDepth < 1 {
		t.Errorf("queue depth %d", m.MaxQueueDepth)
	}
}

func TestLoadAmplifiesLatency(t *testing.T) {
	s := servingSystem(t)
	light, err := Run(s, simConfig(Serial, engine.HybridStatic, 0.02))
	if err != nil {
		t.Fatal(err)
	}
	heavy, err := Run(s, simConfig(Serial, engine.HybridStatic, 0.4))
	if err != nil {
		t.Fatal(err)
	}
	if heavy.TTFT.Mean <= light.TTFT.Mean {
		t.Errorf("load did not raise perceived TTFT: %.3f vs %.3f",
			heavy.TTFT.Mean, light.TTFT.Mean)
	}
	if heavy.SoCUtilization <= light.SoCUtilization {
		t.Error("utilization did not rise with load")
	}
}

func TestFACILServesBetterUnderLoad(t *testing.T) {
	s := servingSystem(t)
	hybrid, err := Run(s, simConfig(Serial, engine.HybridStatic, 0.3))
	if err != nil {
		t.Fatal(err)
	}
	facil, err := Run(s, simConfig(Serial, engine.FACIL, 0.3))
	if err != nil {
		t.Fatal(err)
	}
	if facil.TTFT.Mean >= hybrid.TTFT.Mean {
		t.Errorf("FACIL perceived TTFT %.3f not below hybrid %.3f",
			facil.TTFT.Mean, hybrid.TTFT.Mean)
	}
	if facil.SoCUtilization >= hybrid.SoCUtilization {
		t.Errorf("FACIL utilization %.2f not below hybrid %.2f (same offered load)",
			facil.SoCUtilization, hybrid.SoCUtilization)
	}
}

func TestConfigValidation(t *testing.T) {
	s := servingSystem(t)
	if _, err := Run(s, SimConfig{Mode: Serial, Kind: engine.FACIL, Replicas: 1, ArrivalRate: 0, Queries: 10}); err == nil {
		t.Error("zero rate accepted")
	}
	if _, err := Run(s, SimConfig{Mode: Serial, Kind: engine.FACIL, Replicas: 1, ArrivalRate: 1, Queries: 0}); err == nil {
		t.Error("zero queries accepted")
	}
}

package main

import (
	"context"
	"fmt"
	"os"
	"runtime/pprof"
	"syscall"
	"time"

	"facil/internal/engine"
	"facil/internal/exp"
	"facil/internal/run"
	"facil/internal/soc"
)

// sample is what one child process reports to the orchestrator, as the
// last line of its standard output.
type sample struct {
	// Ready is when the child finished its set-up, in Unix nanoseconds;
	// the orchestrator turns it into the set-up time from process start.
	Ready int64 `json:"ready"`
	// WallS is the host wall time of the measured work: one Execute for
	// a batch workload, the runner's busy time over the window for
	// daemon-mix.
	WallS float64 `json:"wall_s"`
	// CPUS is the process's user+sys CPU time over the measured work.
	CPUS float64 `json:"cpu_s"`
	// Latencies are daemon-mix's submit→report times, from each
	// submission's due time.
	Latencies []float64 `json:"latencies,omitempty"`
	// RunsPerS is daemon-mix's completed runs per second of window.
	RunsPerS float64 `json:"runs_per_s,omitempty"`
	// Attempted counts the operations whose output was checked;
	// Failures lists the ones that failed.
	Attempted int      `json:"attempted"`
	Failures  []string `json:"failures,omitempty"`
	// Layer holds the traced window's per-layer counts and timings.
	Layer map[string]float64 `json:"layer,omitempty"`
	// SetupS and PeakRSSMB are filled in by the orchestrator: the time
	// from starting the child to Ready, and the child's peak resident
	// memory.
	SetupS    float64 `json:"-"`
	PeakRSSMB float64 `json:"-"`
}

func (s *sample) fail(why string) { s.Failures = append(s.Failures, why) }

// cpuSeconds is the process's user+sys CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// batchSetup is a batch workload's set-up after process start: the run
// engine and the Lab's System for every platform.
func batchSetup(par int) (*run.Engine, error) {
	eng := run.New(run.Options{Config: engine.DefaultConfig(), Tool: "perfbench", Parallelism: par})
	for _, p := range soc.All() {
		if _, err := eng.Lab().System(p); err != nil {
			return nil, fmt.Errorf("perfbench: system %s: %w", p.Name, err)
		}
	}
	return eng, nil
}

// profiler is a traced window: a CPU profile, the spans, and the
// counters read at its start.
type profiler struct {
	file   *os.File
	spans  *spanLog
	before counters
}

// startProfile opens a traced window writing its CPU profile to path.
func startProfile(path string) (*profiler, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return &profiler{file: f, spans: &spanLog{}, before: readCounters()}, nil
}

// stop closes the window and returns the counts accumulated in it.
func (p *profiler) stop() (map[string]float64, error) {
	pprof.StopCPUProfile()
	layer := p.before.since(readCounters())
	return layer, p.file.Close()
}

// addProbe adds the engine lookup probe to a traced sample.
func addProbe(s *sample, seed int64) error {
	cold, warm, err := lookupProbe(seed)
	if err != nil {
		return fmt.Errorf("perfbench: lookup probe: %w", err)
	}
	s.Layer["engine.lookup_cold_ns"] = cold
	s.Layer["engine.lookup_warm_ns"] = warm
	return nil
}

// addElapsed sums each experiment's wall time into exp.<id>_s.
func addElapsed(layer map[string]float64, rep exp.Report) {
	for _, r := range rep.Results {
		layer["exp."+r.ID+"_s"] += r.ElapsedSeconds
	}
}

// childIter is one batch iteration in a fresh process: set-up, then one
// Execute of the workload's scenario, its report checked against the
// recorded digest. With a profile path the Execute is traced.
func childIter(ctx context.Context, o options, digests digestTable) (sample, error) {
	eng, err := batchSetup(batchParallelism(o.workload))
	if err != nil {
		return sample{}, err
	}
	s := sample{Ready: time.Now().UnixNano(), Attempted: 1}
	sc := batchScenario(o.workload, o.seed, o.tiny)

	var prof *profiler
	if o.profile != "" {
		if prof, err = startProfile(o.profile); err != nil {
			return sample{}, err
		}
	}
	var spans *spanLog
	if prof != nil {
		spans = prof.spans
	}
	start, cpu0 := time.Now(), cpuSeconds()
	root := spans.add("Execute", 0, -1, start, start)
	rep, execErr := eng.Execute(ctx, sc, run.ExecOpts{Sink: func(r exp.Result) error {
		end := time.Now()
		spans.add("exp."+r.ID, 0, root, end.Add(-time.Duration(r.ElapsedSeconds*float64(time.Second))), end)
		return nil
	}})
	s.WallS, s.CPUS = time.Since(start).Seconds(), cpuSeconds()-cpu0
	spans.end(root, time.Now())
	if prof != nil {
		if s.Layer, err = prof.stop(); err != nil {
			return sample{}, err
		}
		addElapsed(s.Layer, rep)
		if err := addProbe(&s, o.seed); err != nil {
			return sample{}, err
		}
		if err := spans.writeChrome(o.spans); err != nil {
			return sample{}, err
		}
	}
	if execErr != nil {
		s.fail(execErr.Error())
	} else if why := digests.check(sc, rep); why != "" {
		s.fail(why)
	}
	return s, nil
}

// childSetup measures one set-up of the workload in a fresh process.
func childSetup(ctx context.Context, o options, digests digestTable) (sample, error) {
	if o.workload != daemonMix {
		_, err := batchSetup(batchParallelism(o.workload))
		return sample{Ready: time.Now().UnixNano()}, err
	}
	var s sample
	_, seeds := mixSchedule(o.seed, o.seconds)
	m, err := startMix(ctx, digests, &s, seeds)
	if err != nil {
		return sample{}, err
	}
	m.close()
	return s, nil
}

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"facil/internal/engine"
	"facil/internal/run"
)

// TestMain lets the test binary stand in for the benchmark binary: the
// orchestrator re-executes itself for every child process.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) != "" {
		os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// benchmarkFile is the part of BENCHMARK.json the tests check.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestTinyRunEmitsEveryMetric runs every workload at tiny size, plain
// and traced, and checks that each prints every metric BENCHMARK.json
// names with its unit, and that its outputs check out.
func TestTinyRunEmitsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns child processes for every workload")
	}
	b := loadBenchmarkFile(t)
	want := [2]map[string]string{{}, {}}
	for _, m := range b.EndToEnd {
		want[0][m.Name] = m.Unit
	}
	for _, m := range b.PerLayer {
		want[1][m.Name] = m.Unit
	}
	for _, w := range b.Workloads {
		for trace := 0; trace <= 1; trace++ {
			o := options{workload: w.Name, seed: 3, seconds: 1, trace: trace, tiny: true, outDir: t.TempDir()}
			res, err := bench(context.Background(), o)
			if err != nil {
				t.Fatalf("%s trace %d: %v", w.Name, trace, err)
			}
			var out bytes.Buffer
			if err := res.print(&out, o); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var last result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
				t.Fatalf("%s trace %d: last line: %v", w.Name, trace, err)
			}
			if !last.Correct || last.Failed != 0 || last.Attempted < 1 {
				t.Errorf("%s trace %d: correct=%v attempted=%d failed=%d: %v",
					w.Name, trace, last.Correct, last.Attempted, last.Failed, res.failures)
			}
			if len(last.Metrics) != len(want[trace]) {
				t.Errorf("%s trace %d: %d metrics, BENCHMARK.json names %d", w.Name, trace, len(last.Metrics), len(want[trace]))
			}
			for name, unit := range want[trace] {
				got, ok := last.Metrics[name]
				if !ok || got.Unit != unit {
					t.Errorf("%s trace %d: metric %s = %+v, want unit %q", w.Name, trace, name, got, unit)
				}
			}
			if trace == 0 && last.Metrics["wall_s"].Value <= 0 {
				t.Errorf("%s: wall_s = %v, want > 0", w.Name, last.Metrics["wall_s"].Value)
			}
			if trace == 1 {
				req := last.Metrics["dram.requests"].Value
				if w.Name == paperEval && req <= 0 {
					t.Errorf("paper-eval: dram.requests = %v, want > 0", req)
				}
				if w.Name == fleet && req != 0 {
					t.Errorf("fleet: dram.requests = %v, want 0", req)
				}
			}
		}
	}
}

// TestPerturbedReportFailsDigestCheck checks that the digest check
// passes a clean report, ignores wall-clock fields and catches a
// changed result.
func TestPerturbedReportFailsDigestCheck(t *testing.T) {
	digests, err := loadDigests()
	if err != nil {
		t.Fatal(err)
	}
	sc := batchScenario(paperEval, 5, true)
	eng := run.New(run.Options{Config: engine.DefaultConfig(), Parallelism: 1})
	rep, err := eng.Execute(context.Background(), sc, run.ExecOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if why := digests.check(sc, rep); why != "" {
		t.Fatalf("clean report: %s", why)
	}
	rep.Manifest.WallSeconds += 3
	rep.Results[0].ElapsedSeconds += 1
	if why := digests.check(sc, rep); why != "" {
		t.Fatalf("wall-clock fields changed: %s", why)
	}
	row := rep.Results[0].Tables[0].Rows[0]
	perturbed := append([]string(nil), row...)
	perturbed[len(perturbed)-1] += "1"
	rep.Results[0].Tables[0].Rows[0] = perturbed
	if why := digests.check(sc, rep); !strings.Contains(why, "digest") {
		t.Fatalf("perturbed report: check = %q, want a digest mismatch", why)
	}
	rep.Results[0].Tables[0].Rows[0] = row
	rep.Results[1].Error = "boom"
	if why := digests.check(sc, rep); why == "" {
		t.Fatal("failed experiment passed the check")
	}
}

// TestEveryNamedScenarioHasADigest guards digests.json against a
// scenario change made without -record.
func TestEveryNamedScenarioHasADigest(t *testing.T) {
	digests, err := loadDigests()
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range namedScenarios() {
		if _, ok := digests[scenarioKey(sc)]; !ok {
			t.Errorf("no recorded digest for %q", scenarioKey(sc))
		}
	}
	for s := int64(-40); s < 40; s++ {
		if p := poolSeed(s); p < 1 || p > seedPool {
			t.Fatalf("poolSeed(%d) = %d, outside 1..%d", s, p, seedPool)
		}
	}
}

func TestMixSchedule(t *testing.T) {
	const seconds = 30.0
	a, seeds := mixSchedule(7, seconds)
	b, _ := mixSchedule(7, seconds)
	if len(seeds) != mixSeeds {
		t.Fatalf("%d run seeds, want %d", len(seeds), mixSeeds)
	}
	if len(a) != int(mixRate*seconds) {
		t.Fatalf("%d submissions, want %d", len(a), int(mixRate*seconds))
	}
	counts := make([]int, len(mixKinds))
	for i, s := range a {
		if s != b[i] {
			t.Fatalf("schedule differs at %d for one seed", i)
		}
		if s.at < 0 || s.at >= seconds*time.Second || (i > 0 && s.at <= a[i-1].at) {
			t.Fatalf("submission %d due at %v", i, s.at)
		}
		if !slices.Contains(seeds, s.seed) || s.seed < 1 || s.seed > seedPool {
			t.Fatalf("submission %d seed %d outside the run's seeds %v", i, s.seed, seeds)
		}
		counts[s.kind]++
	}
	for k, n := range counts {
		if n < len(a)/len(mixKinds) || n > len(a)/len(mixKinds)+1 {
			t.Errorf("kind %s: %d of %d submissions", mixKinds[k].id, n, len(a))
		}
	}
	if c, _ := mixSchedule(8, seconds); c[1] == a[1] && c[2] == a[2] {
		t.Error("two seeds gave the same schedule")
	}
}

func TestParseTraces(t *testing.T) {
	text := `File: perfbench
Type: cpu
-----------+-------------------------------------------------------
      10ms   runtime.mallocgc
             facil/internal/dram.(*Channel).allocSlot (inline)
             facil/internal/relayout.(*Engine).replay
-----------+-------------------------------------------------------
     1.20s   facil/internal/parallel.Sweep[go.shape.struct { A int }].func2
             facil/internal/exp.(*Lab).Fig14Compute.func1
-----------+-------------------------------------------------------
      30ms   runtime.gcBgMarkWorker
-----------+-------------------------------------------------------
`
	self, err := parseTraces(text)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"dram": 0.01, "other": 1.2, "runtime": 0.03}
	for _, l := range layers {
		if d := self[l] - want[l]; d > 1e-9 || d < -1e-9 {
			t.Errorf("%s.self_s = %v, want %v", l, self[l], want[l])
		}
	}
	if _, err := parseTraces("-----------+---\n  bogus   runtime.x\n"); err == nil {
		t.Error("a malformed stack value parsed")
	}
}

func TestQuantiles(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1)
	}
	if got := nearestRank(xs, 0.9); got != 90 {
		t.Errorf("p90 of 1..100 = %v, want 90 (10 samples beyond it)", got)
	}
	if got := median(xs); got != 50.5 {
		t.Errorf("median of 1..100 = %v, want 50.5", got)
	}
	if median(nil) != 0 || nearestRank(nil, 0.9) != 0 {
		t.Error("empty samples should read 0")
	}
}

// Command perfbench is this repository's benchmark. It runs one of three
// workloads against the simulator, checks every simulated result
// against its recorded digest, and prints the workload's metrics as one
// JSON object on the last line of standard output:
//
//	bash perfbench/run.sh --workload paper-eval --seed 1 --seconds 30 --trace 0
//
// With --trace 0 it reports the end-to-end metrics, measured untraced;
// with --trace 1 it makes a separate traced pass and reports the
// per-layer metrics: host time per internal package from a CPU profile,
// the program's exported work counters, and timings of the calls the
// benchmark makes. Every batch iteration and every daemon-mix run
// starts in a fresh process (see README.md in this directory).
//
// -record re-runs every scenario the benchmark names and rewrites
// perfbench/digests.json; use it only when a change is meant to alter
// simulated results.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"slices"
	"strconv"
	"syscall"
	"time"
)

// options are the command-line flags; the child ones are internal to
// the orchestrator.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	tiny     bool
	record   bool
	outDir   string // profiles and span files

	child   string // "iter", "setup" or "daemon": run one child process
	profile string // child: CPU profile path (traced)
	spans   string // child: span file path (traced)
}

func parseOptions(args []string, stderr io.Writer) (options, error) {
	o := options{outDir: filepath.Join(".bench_build", "perfbench")}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "workload: paper-eval, fleet or daemon-mix")
	fs.Int64Var(&o.seed, "seed", 1, "input seed")
	fs.Float64Var(&o.seconds, "seconds", 30, "measurement budget in seconds")
	fs.IntVar(&o.trace, "trace", 0, "1 = traced pass reporting per-layer metrics")
	fs.BoolVar(&o.tiny, "tiny", false, "shrink the batch workloads (for the benchmark's own tests)")
	fs.BoolVar(&o.record, "record", false, "re-run every named scenario and rewrite perfbench/digests.json")
	fs.StringVar(&o.child, "child", "", "internal: run one child process of this kind")
	fs.StringVar(&o.profile, "profile", "", "internal: child CPU profile path")
	fs.StringVar(&o.spans, "spans", "", "internal: child span file path")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if o.record {
		return o, nil
	}
	switch {
	case !slices.Contains(workloads, o.workload):
		return o, fmt.Errorf("perfbench: unknown workload %q (want paper-eval, fleet or daemon-mix)", o.workload)
	case o.seconds <= 0:
		return o, errors.New("perfbench: --seconds must be positive")
	case o.trace != 0 && o.trace != 1:
		return o, errors.New("perfbench: --trace must be 0 or 1")
	}
	return o, nil
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	o, err := parseOptions(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if o.record {
		err = record(ctx, filepath.Join("perfbench", "digests.json"))
	} else if o.child != "" {
		err = childMain(ctx, o, stdout)
	} else {
		var res result
		if res, err = bench(ctx, o); err == nil {
			err = res.print(stdout, o)
		}
	}
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	return 0
}

// logf writes a progress line to standard error.
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

// childMain runs one child process and prints its sample.
func childMain(ctx context.Context, o options, stdout io.Writer) error {
	digests, err := loadDigests()
	if err != nil {
		return err
	}
	var s sample
	switch o.child {
	case "iter":
		s, err = childIter(ctx, o, digests)
	case "setup":
		s, err = childSetup(ctx, o, digests)
	case "daemon":
		s, err = childDaemon(ctx, o, digests)
	default:
		err = fmt.Errorf("perfbench: unknown child %q", o.child)
	}
	if err != nil {
		return err
	}
	return json.NewEncoder(stdout).Encode(s)
}

// childTimeout bounds one whole benchmark invocation, so it exits
// within the three minutes a run may take.
const childTimeout = 170 * time.Second

// spawn runs one child process of the given kind and returns its
// sample, with the set-up time from process start and the child's peak
// resident memory filled in.
func spawn(ctx context.Context, o options, kind string, extra ...string) (sample, error) {
	exe, err := os.Executable()
	if err != nil {
		return sample{}, err
	}
	args := []string{"-child", kind, "-workload", o.workload,
		"-seed", strconv.FormatInt(o.seed, 10), "-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64)}
	if o.tiny {
		args = append(args, "-tiny")
	}
	cmd := exec.CommandContext(ctx, exe, append(args, extra...)...)
	cmd.Env = append(os.Environ(), childEnv+"=1")
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	start := time.Now()
	if err := cmd.Run(); err != nil {
		return sample{}, fmt.Errorf("perfbench: %s child: %w", kind, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
	var s sample
	if err := json.Unmarshal(lines[len(lines)-1], &s); err != nil {
		return sample{}, fmt.Errorf("perfbench: %s child output: %w", kind, err)
	}
	s.SetupS = float64(s.Ready-start.UnixNano()) / 1e9
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		s.PeakRSSMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return s, nil
}

// childEnv marks a child process, so a test binary re-executed as a
// child runs the child instead of the tests.
const childEnv = "PERFBENCH_CHILD"

// setupSamples is how many set-ups each run measures, each in a fresh
// process, for the median setup_s.
const setupSamples = 5

// daemonSetupSamples is the same for daemon-mix, whose set-up includes
// sixteen cold warm-up runs.
const daemonSetupSamples = 3

// bench runs one invocation: the untraced end-to-end pass or the traced
// per-layer pass of one workload.
func bench(ctx context.Context, o options) (result, error) {
	ctx, cancel := context.WithTimeout(ctx, childTimeout)
	defer cancel()
	if o.trace == 1 {
		return traced(ctx, o)
	}
	var res result
	var runs []sample
	if o.workload == daemonMix {
		s, err := spawn(ctx, o, "daemon")
		if err != nil {
			return res, err
		}
		runs = append(runs, s)
	} else {
		// Iterate until the budget is spent, at least twice.
		start := time.Now()
		for len(runs) < 2 || time.Since(start).Seconds() < o.seconds {
			s, err := spawn(ctx, o, "iter")
			if err != nil {
				return res, err
			}
			runs = append(runs, s)
		}
	}
	res.count(runs)
	var walls, cpus, rss, lat, setups []float64
	for _, s := range runs {
		walls = append(walls, s.WallS)
		cpus = append(cpus, s.CPUS)
		rss = append(rss, s.PeakRSSMB)
		lat = append(lat, s.Latencies...)
		setups = append(setups, s.SetupS)
	}
	want := setupSamples
	if o.workload == daemonMix {
		want = daemonSetupSamples
	}
	for len(setups) < want {
		s, err := spawn(ctx, o, "setup")
		if err != nil {
			return res, err
		}
		res.count([]sample{s})
		setups = append(setups, s.SetupS)
	}

	runsPerS := runs[0].RunsPerS
	if o.workload != daemonMix {
		// A batch request is one Execute.
		lat = walls
		var total float64
		for _, w := range walls {
			total += w
		}
		runsPerS = float64(len(walls)) / total
	}
	res.Metrics = metricsOf(endToEnd, map[string]float64{
		"wall_s":        median(walls),
		"cpu_s":         median(cpus),
		"setup_s":       median(setups),
		"peak_rss_mb":   median(rss),
		"latency_p50_s": median(lat),
		"latency_p90_s": nearestRank(lat, 0.9),
		"runs_per_s":    runsPerS,
	})
	res.samples = len(lat)
	return res, nil
}

// traced is the per-layer pass: an untraced and a traced measurement of
// the same work, each in a fresh process, the traced one with a CPU
// profile whose samples are split by layer. For daemon-mix both play
// half a window, so the pass takes about as long as an untraced one.
func traced(ctx context.Context, o options) (result, error) {
	var res result
	if o.workload == daemonMix {
		o.seconds /= 2
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return res, err
	}
	profile := filepath.Join(o.outDir, fmt.Sprintf("cpu-%s-%d.pprof", o.workload, os.Getpid()))
	defer os.Remove(profile)
	spans := filepath.Join(o.outDir, fmt.Sprintf("spans-%s-seed%d.json", o.workload, o.seed))
	kind := "iter"
	if o.workload == daemonMix {
		kind = "daemon"
	}
	plain, err := spawn(ctx, o, kind)
	if err != nil {
		return res, err
	}
	t, err := spawn(ctx, o, kind, "-profile", profile, "-spans", spans)
	if err != nil {
		return res, err
	}
	res.count([]sample{plain, t})
	if plain.WallS > 0 {
		t.Layer["trace.overhead_frac"] = t.WallS/plain.WallS - 1
	}
	self, err := layerSelfSeconds(ctx, profile)
	if err != nil {
		return res, err
	}
	for l, v := range self {
		t.Layer[l+".self_s"] = v
	}
	if n := t.Layer["dram.requests"]; n > 0 {
		t.Layer["dram.ns_per_request"] = self["dram"] / n * 1e9
	}
	if n := t.Layer["serve.events"]; n > 0 {
		t.Layer["serve.ns_per_event"] = self["serve"] / n * 1e9
	}
	res.Metrics = metricsOf(perLayer(), t.Layer)
	logf("spans written to %s", spans)
	return res, nil
}

// result is the benchmark's output object.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	failures []string
	samples  int // latency samples behind the percentiles
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// count adds the samples' checked operations and failures.
func (r *result) count(samples []sample) {
	for _, s := range samples {
		r.Attempted += s.Attempted
		r.Failed += len(s.Failures)
		r.failures = append(r.failures, s.Failures...)
	}
	r.Correct = r.Failed == 0
}

// metricsOf picks every defined metric from values; one the run has no
// value for reads 0.
func metricsOf(defs []metricDef, values map[string]float64) map[string]metric {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		out[d.name] = metric{Value: values[d.name], Unit: d.unit}
	}
	return out
}

// print writes a readable summary, then the result object as the last
// line.
func (r result) print(w io.Writer, o options) error {
	defs := endToEnd
	if o.trace == 1 {
		defs = perLayer()
	}
	fmt.Fprintf(w, "# %s seed %d, trace %d\n", o.workload, o.seed, o.trace)
	for _, d := range defs {
		fmt.Fprintf(w, "%-28s %14.6g %s\n", d.name, r.Metrics[d.name].Value, d.unit)
	}
	if r.samples > 0 {
		fmt.Fprintf(w, "latency samples: %d\n", r.samples)
	}
	fmt.Fprintf(w, "failed_frac: %d / %d = %g\n", r.Failed, r.Attempted, float64(r.Failed)/float64(max(r.Attempted, 1)))
	for _, f := range r.failures {
		fmt.Fprintf(w, "FAILED: %s\n", f)
	}
	return json.NewEncoder(w).Encode(r)
}

// Command facilsim regenerates the paper's tables and figures from the
// simulation stack.
//
// Usage:
//
//	facilsim [-list] [-par N] [-v] [-format table|csv|json] [-trace FILE]
//	         [-o DIR] [-id LIST] [-queries N] [-seed S] [-scale K]
//	         [-scenario FILE] [-record FILE] [experiment ...]
//
// With no arguments every experiment runs in DESIGN.md order. Run
// `facilsim -list` for the experiment identifiers (rendered from the
// same registry the facild daemon's GET /experiments serves). -id
// accepts a comma-separated identifier list and merges with positional
// arguments.
//
// The CLI is a thin shell over the internal/run engine: flags assemble
// a run.Scenario, the engine executes it, and the same scenario (as
// JSON) can be replayed here with -scenario FILE or POSTed unchanged to
// a facild daemon. -record FILE writes the effective scenario before
// running, so any invocation can be captured for replay.
//
// Output selection:
//
//   - -format table (default) streams aligned-text tables in
//     command-line order, byte-identical at any parallelism.
//   - -format csv streams each table as CSV preceded by a `# title` line.
//   - -format json emits one Report document at the end: a run manifest
//     (git revision, seed, environment, wall time) plus every
//     experiment's tables as structured data. See EXPERIMENTS.md
//     "Machine-readable output" for the schema.
//   - -o DIR additionally writes per-experiment files (<id>.txt/.csv/
//     .json according to -format) plus manifest.json into DIR.
//   - -trace FILE records a Chrome trace-event timeline of the
//     trace-aware experiments (serving2 lane occupancy, queue depth,
//     admissions) — load it at https://ui.perfetto.dev. -tracebuf bounds
//     the in-memory event ring.
//
// Every run.Scenario override (-queries, -seed, -scale, the serving2,
// resilience and cluster sweeps, -tunebudget, -tuneseed) is a flag
// registered from the scenario's knob table: `facilsim -h` lists each
// with its usage, and EXPERIMENTS.md documents each experiment's knobs.
// `facilsim -cluster` and `facilsim -tune` are shorthand for the cluster
// and maptune identifiers.
//
// -par N bounds the worker pool: independent experiment identifiers run
// concurrently, and each ported experiment additionally fans its sweep
// points out over up to N workers (0, the default, selects GOMAXPROCS;
// 1 forces fully serial runs). -v reports per-experiment sweep progress
// on stderr. SIGINT/SIGTERM cancel all in-flight experiments promptly.
//
// Profiling: -cpuprofile/-memprofile write pprof profiles; -pprof ADDR
// serves net/http/pprof on ADDR (e.g. localhost:6060) for live
// inspection of long sweeps.
//
// -version prints the module version and build info.
//
// A failing experiment does not abort the run: remaining identifiers
// still execute, the failures are summarized on stderr at the end
// (and in the JSON report's manifest), and the exit status is non-zero.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"syscall"

	"facil/internal/dram"
	"facil/internal/engine"
	"facil/internal/exp"
	"facil/internal/obs"
	"facil/internal/run"
)

func main() {
	os.Exit(mainErr(os.Args[1:]))
}

// mainErr is main over args with an exit code, so deferred
// profile/trace writers run before the process exits and tests can
// drive the CLI in-process.
func mainErr(args []string) int {
	fs := flag.NewFlagSet("facilsim", flag.ContinueOnError)
	list := fs.Bool("list", false, "list experiment identifiers and exit")
	version := fs.Bool("version", false, "print the module version and build info, then exit")
	format := fs.String("format", "table", "output format: table, csv or json")
	csvOut := fs.Bool("csv", false, "deprecated alias for -format csv")
	outDir := fs.String("o", "", "write per-experiment result files plus manifest.json into this directory")
	idList := fs.String("id", "", "comma-separated experiment identifiers (merged with positional arguments)")
	scenarioFile := fs.String("scenario", "", "replay a recorded scenario file (explicit flags override its fields)")
	recordFile := fs.String("record", "", "record the effective scenario as JSON into this file before running")
	traceFile := fs.String("trace", "", "write a Chrome trace-event timeline of trace-aware experiments to this file")
	traceBuf := fs.Int("tracebuf", obs.DefaultCapacity, "trace ring-buffer capacity in events (oldest evicted on overflow)")
	par := fs.Int("par", 0, "max concurrent sweep workers (0 = GOMAXPROCS, 1 = serial)")
	verbose := fs.Bool("v", false, "report sweep progress on stderr")
	clusterRun := fs.Bool("cluster", false, "shorthand: run the cluster experiment (equivalent to the 'cluster' identifier)")
	tuneRun := fs.Bool("tune", false, "shorthand: run the maptune experiment (equivalent to the 'maptune' identifier)")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile to this file at exit")
	pprofAddr := fs.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	overlay := run.BindFlags(fs)
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: facilsim [flags] [experiment ...]\n\nexperiments: %s\n\n",
			strings.Join(exp.AllIDs, " "))
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	if *version {
		fmt.Println(obs.CurrentBuild())
		return 0
	}
	if *list {
		for _, info := range exp.Catalog() {
			fmt.Printf("%-10s  %s\n", info.ID, info.Title)
		}
		return 0
	}
	if *csvOut {
		*format = "csv"
	}
	switch *format {
	case "table", "csv", "json":
	default:
		fmt.Fprintf(os.Stderr, "facilsim: unknown -format %q (want table, csv or json)\n", *format)
		return 2
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "facilsim: -cpuprofile: %v\n", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "facilsim: -cpuprofile: %v\n", err)
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "facilsim: -memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "facilsim: -memprofile: %v\n", err)
			}
		}()
	}
	if *pprofAddr != "" {
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintf(os.Stderr, "facilsim: -pprof: %v\n", err)
			}
		}()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Assemble the scenario: a replayed file forms the base, explicit
	// flags override its fields, and positional/-id identifiers replace
	// its experiment list when given.
	sc := run.DefaultScenario()
	if *scenarioFile != "" {
		var err error
		if sc, err = run.Load(*scenarioFile); err != nil {
			fmt.Fprintf(os.Stderr, "facilsim: -scenario: %v\n", err)
			return 1
		}
	}
	overlay(&sc)
	ids := fs.Args()
	for _, id := range strings.Split(*idList, ",") {
		if id = strings.TrimSpace(id); id != "" {
			ids = append(ids, id)
		}
	}
	if *clusterRun {
		ids = append(ids, "cluster")
	}
	if *tuneRun {
		ids = append(ids, "maptune")
	}
	if len(ids) > 0 {
		sc.Experiments = ids
	}
	if *recordFile != "" {
		if err := sc.Save(*recordFile); err != nil {
			fmt.Fprintf(os.Stderr, "facilsim: -record: %v\n", err)
			return 1
		}
	}

	var tracer *obs.Tracer
	if *traceFile != "" {
		tracer = obs.New(*traceBuf)
	}
	opts := run.Options{
		Config:      engine.DefaultConfig(),
		Tool:        "facilsim",
		Parallelism: *par,
		Tracer:      tracer,
	}
	if *verbose {
		var mu sync.Mutex
		opts.Progress = func(experiment string, done, total int) {
			mu.Lock()
			fmt.Fprintf(os.Stderr, "facilsim: %s: %d/%d\n", experiment, done, total)
			mu.Unlock()
		}
	}
	eng := run.New(opts)

	report, err := eng.Execute(ctx, sc, run.ExecOpts{
		OutDir: *outDir,
		Format: *format,
		Sink: func(res exp.Result) error {
			if res.Error != "" {
				fmt.Fprintf(os.Stderr, "facilsim: %s: %s\n", res.ID, res.Error)
				return nil
			}
			return emitStdout(*format, res)
		},
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "facilsim: %v\n", err)
		return 1
	}

	if *format == "json" {
		if err := report.WriteJSON(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "facilsim: %v\n", err)
			return 1
		}
	}
	if tracer != nil {
		if err := tracer.WriteFile(*traceFile); err != nil {
			fmt.Fprintf(os.Stderr, "facilsim: -trace: %v\n", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "facilsim: trace: %s (%d events, %d dropped)\n",
			*traceFile, tracer.Len(), tracer.Dropped())
	}
	if *verbose {
		fmt.Fprintf(os.Stderr, "facilsim: DRAM totals: %d stream replays, %d requests, %d cycles\n",
			dram.Global.Streams(), dram.Global.Requests(), dram.Global.Cycles())
	}
	if failed := report.Manifest.Failed; len(failed) > 0 {
		fmt.Fprintf(os.Stderr, "facilsim: %d of %d experiments failed: %s\n",
			len(failed), len(report.Manifest.Experiments), strings.Join(failed, " "))
		return 1
	}
	return 0
}

// emitStdout streams one successful result to stdout in the selected
// format. JSON results are not streamed — they are bundled into the
// final Report document instead.
func emitStdout(format string, res exp.Result) error {
	switch format {
	case "table":
		if err := res.WriteText(os.Stdout); err != nil {
			return err
		}
		fmt.Printf("[%s finished in %.1fs]\n\n", res.ID, res.ElapsedSeconds)
	case "csv":
		return res.WriteCSV(os.Stdout)
	}
	return nil
}

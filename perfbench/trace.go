package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"sync"
	"time"

	"facil/internal/cluster"
	"facil/internal/dram"
	"facil/internal/engine"
	"facil/internal/exp"
	"facil/internal/pim"
	"facil/internal/serve"
	"facil/internal/workload"
)

// span is one timed call the benchmark made into the program. Spans of
// one daemon-mix submission share Req; Parent is the index of the
// enclosing span, or -1.
type span struct {
	Name   string
	Req    int
	Parent int
	Start  time.Time
	End    time.Time
}

// spanLog keeps spans in memory until the run ends. A nil log records
// nothing, so untraced runs pay one nil check per call.
type spanLog struct {
	mu    sync.Mutex
	spans []span
}

// add records a span and returns its index.
func (l *spanLog) add(name string, req, parent int, start, end time.Time) int {
	if l == nil {
		return -1
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, span{Name: name, Req: req, Parent: parent, Start: start, End: end})
	return len(l.spans) - 1
}

// end sets the end time of span i.
func (l *spanLog) end(i int, t time.Time) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans[i].End = t
}

// writeChrome writes the spans as a Chrome trace-event document (open
// it in Perfetto or chrome://tracing), one track per request.
func (l *spanLog) writeChrome(path string) error {
	if l == nil || path == "" {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	events := make([]event, 0, len(l.spans))
	var origin time.Time
	for i, s := range l.spans {
		if i == 0 || s.Start.Before(origin) {
			origin = s.Start
		}
	}
	for i, s := range l.spans {
		events = append(events, event{
			Name: s.Name, Ph: "X", PID: 1, TID: s.Req + 1,
			TS:   float64(s.Start.Sub(origin).Nanoseconds()) / 1e3,
			Dur:  float64(s.End.Sub(s.Start).Nanoseconds()) / 1e3,
			Args: map[string]int{"span": i, "parent": s.Parent},
		})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// counters are the program's exported work counters plus the Go
// runtime's allocation totals, read at span boundaries.
type counters struct {
	dram    [3]int64 // streams, requests, cycles
	serve   [2]int64 // events, completed
	cluster [4]int64 // routed, shed, stolen, barriers
	alloc   uint64
	gc      uint32
}

func readCounters() counters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	sv := serve.Live.Snapshot()
	cl := cluster.Live.Snapshot()
	return counters{
		dram:    [3]int64{dram.Global.Streams(), dram.Global.Requests(), dram.Global.Cycles()},
		serve:   [2]int64{sv.Events, sv.Completed},
		cluster: [4]int64{cl.Routed, cl.Shed, cl.Stolen, cl.Barriers},
		alloc:   ms.TotalAlloc,
		gc:      ms.NumGC,
	}
}

// since returns the per-layer counts accumulated between c and a later
// reading now.
func (c counters) since(now counters) map[string]float64 {
	return map[string]float64{
		"dram.streams":      float64(now.dram[0] - c.dram[0]),
		"dram.requests":     float64(now.dram[1] - c.dram[1]),
		"dram.cycles":       float64(now.dram[2] - c.dram[2]),
		"serve.events":      float64(now.serve[0] - c.serve[0]),
		"serve.completed":   float64(now.serve[1] - c.serve[1]),
		"cluster.routed":    float64(now.cluster[0] - c.cluster[0]),
		"cluster.shed":      float64(now.cluster[1] - c.cluster[1]),
		"cluster.stolen":    float64(now.cluster[2] - c.cluster[2]),
		"cluster.barriers":  float64(now.cluster[3] - c.cluster[3]),
		"runtime.alloc_mb":  float64(now.alloc-c.alloc) / (1 << 20),
		"runtime.gc_cycles": float64(now.gc - c.gc),
	}
}

// probeQueries is how many of the fleet's generated queries the engine
// lookup probe replays on each System.
const probeQueries = 2000

// lookupProbe times System.TTFTStatic + DecodeStepSeconds pairs over the
// fleet's generated lengths on fresh Systems of the fleet's four device
// classes: a cold pass that fills the memo caches, then a warm pass. It
// returns nanoseconds per pair for each pass.
func lookupProbe(seed int64) (coldNs, warmNs float64, err error) {
	var systems []*engine.System
	for _, c := range exp.DefaultClusterConfig().Fleet {
		cfg := engine.DefaultConfig()
		if c.MACIntervalCycles != 0 {
			p := pim.DefaultAiM(c.Platform.Spec.Geometry)
			p.MACIntervalCycles = c.MACIntervalCycles
			cfg.PIM = &p
		}
		s, err := engine.NewSystem(c.Platform, exp.PlatformModel(c.Platform), cfg)
		if err != nil {
			return 0, 0, err
		}
		systems = append(systems, s)
	}
	// The fleet draws its lengths with seed+1 (cluster.Run).
	ds, err := workload.Generate(workload.AlpacaSpec(), probeQueries, poolSeed(seed)+1)
	if err != nil {
		return 0, 0, err
	}
	pass := func() (float64, error) {
		start := time.Now()
		for _, s := range systems {
			for _, q := range ds.Queries {
				if _, err := s.TTFTStatic(engine.FACIL, q.Prefill); err != nil {
					return 0, err
				}
				if _, err := s.DecodeStepSeconds(engine.FACIL, q.Prefill+q.Decode); err != nil {
					return 0, err
				}
			}
		}
		return float64(time.Since(start).Nanoseconds()) / float64(len(systems)*len(ds.Queries)), nil
	}
	if coldNs, err = pass(); err != nil {
		return 0, 0, err
	}
	warmNs, err = pass()
	return coldNs, warmNs, err
}

// layers are this repository's internal packages the benchmark
// attributes host time to; samples in any other internal package count
// as "other", samples with no internal frame as "runtime".
var layers = []string{"vm", "dram", "pim", "soc", "relayout", "engine", "llm", "serve", "cluster", "stats", "exp", "run", "daemon", "other", "runtime"}

const internalPrefix = "facil/internal/"

// layerOf maps a profiled function name to its layer, "" for a frame
// outside facil/internal.
func layerOf(fn string) string {
	rest, ok := strings.CutPrefix(fn, internalPrefix)
	if !ok {
		return ""
	}
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	for _, l := range layers {
		if l == rest {
			return l
		}
	}
	return "other"
}

// layerSelfSeconds splits a CPU profile's samples by layer: each sample
// goes to the innermost facil/internal frame on its stack. It reads
// the profile through `go tool pprof -traces`.
func layerSelfSeconds(ctx context.Context, profile string) (map[string]float64, error) {
	var out bytes.Buffer
	cmd := exec.CommandContext(ctx, "go", "tool", "pprof", "-traces", "-symbolize=none", profile)
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("perfbench: go tool pprof: %w", err)
	}
	return parseTraces(out.String())
}

// parseTraces attributes the stacks of `pprof -traces` output. Each
// stack is a block after a "-----------+---" rule: its first line holds
// the sample value and the innermost frame, each later line a caller.
func parseTraces(text string) (map[string]float64, error) {
	self := make(map[string]float64, len(layers))
	for _, l := range layers {
		self[l] = 0
	}
	var value float64
	owner, open, first := "", false, false
	flush := func() {
		if open {
			if owner == "" {
				owner = "runtime"
			}
			self[owner] += value
		}
		value, owner, open = 0, "", false
	}
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "-----------+") {
			flush()
			open, first = true, true
			continue
		}
		fn := strings.TrimSpace(line)
		if !open || fn == "" {
			continue
		}
		if first {
			v, rest, _ := strings.Cut(fn, " ")
			d, err := time.ParseDuration(v)
			if err != nil {
				return nil, fmt.Errorf("perfbench: pprof stack value %q: %w", v, err)
			}
			value, fn, first = d.Seconds(), strings.TrimSpace(rest), false
		}
		if owner == "" {
			owner = layerOf(strings.TrimSuffix(fn, " (inline)"))
		}
	}
	flush()
	return self, nil
}

package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"time"

	"facil/internal/engine"
	"facil/internal/exp"
	"facil/internal/run"
)

// The three workloads.
const (
	paperEval = "paper-eval"
	fleet     = "fleet"
	daemonMix = "daemon-mix"
)

var workloads = []string{paperEval, fleet, daemonMix}

// seedPool is the number of scenario seeds the benchmark names. Every
// scenario it runs draws its seed from 1..seedPool, so each one has a
// digest recorded in digests.json.
const seedPool = 16

// poolSeed maps any benchmark seed onto the named scenario seeds.
func poolSeed(seed int64) int64 {
	return 1 + (seed%seedPool+seedPool)%seedPool
}

// paperEvalIDs are the paper's evaluation experiments.
var paperEvalIDs = []string{"fig6", "tab1", "tab3", "fig13", "fig14", "fig15", "fig16"}

// batchScenario is one Execute of a batch workload (paper-eval or
// fleet) at the benchmark seed. Tiny shrinks it for the benchmark's own
// tests.
func batchScenario(workload string, seed int64, tiny bool) run.Scenario {
	sc := run.DefaultScenario()
	sc.Seed = poolSeed(seed)
	switch {
	case workload == paperEval && tiny:
		sc.Experiments = []string{"fig6", "fig15"}
		sc.Queries = 30
	case workload == paperEval:
		sc.Experiments = paperEvalIDs
	case tiny: // daemon-mix's small fleet
		sc = mixKinds[1].scenario(sc.Seed)
	default:
		sc.Experiments = []string{"cluster"}
	}
	return sc
}

// batchParallelism is the sweep worker bound of a batch workload:
// paper-eval runs serially, the fleet advances devices on every core.
func batchParallelism(workload string) int {
	if workload == fleet {
		return runtime.NumCPU()
	}
	return 1
}

// mixKind is one kind of small scenario daemon-mix submits.
type mixKind struct {
	id       string
	queries  int
	devices  int
	replicas string
}

// mixKinds is the daemon-mix scenario mix: batch-mode serving, a small
// fleet, fault-injected serving and a dataset sweep.
var mixKinds = []mixKind{
	{id: "serving2", queries: 1000, replicas: "2"},
	{id: "cluster", queries: 2000, devices: 16},
	{id: "resilience", queries: 500},
	{id: "fig15", queries: 30},
}

func (k mixKind) scenario(seed int64) run.Scenario {
	sc := run.DefaultScenario()
	sc.Experiments = []string{k.id}
	sc.Queries = k.queries
	sc.Devices = k.devices
	sc.Replicas = k.replicas
	sc.Seed = seed
	return sc
}

// mixRate is daemon-mix's offered load in submissions per second. The
// warm mix's mean service time in the daemon is about 0.14 s (serving2
// about 0.25 s, the others about 0.1 s on a 2-core x86 host), so this
// keeps the daemon's single runner about half busy, and 30 s of it
// makes the 100 submissions a p90 with 10 samples beyond it needs.
const mixRate = 3.5

// submission is one entry of the daemon-mix schedule.
type submission struct {
	at   time.Duration // due time after the window opens
	kind int           // index into mixKinds
	seed int64         // the scenario's own seed
}

// mixSeeds is how many scenario seeds one daemon-mix run draws from.
// The set-up warms every kind on each of them, so the window measures
// the warm path: a first run on new query lengths fills the engine's
// latency caches and can take ten times a warm one.
const mixSeeds = 4

// mixSchedule derives a run's open-loop schedule from the seed alone:
// ⌊mixRate·seconds⌋ submissions whose gaps are uniform on [0.75, 1.25) of
// the mean, scaled to fill the window, with the kinds in shuffled
// blocks of one each, so every run carries the same mix. Each
// submission draws its scenario seed from the run's mixSeeds seeds,
// which are returned too.
func mixSchedule(seed int64, seconds float64) ([]submission, []int64) {
	rng := rand.New(rand.NewSource(seed))
	var seeds []int64
	for _, i := range rng.Perm(seedPool)[:mixSeeds] {
		seeds = append(seeds, int64(i)+1)
	}
	n := int(mixRate * seconds)
	if n < 1 {
		n = 1
	}
	gaps := make([]float64, n)
	var total float64
	for i := range gaps {
		gaps[i] = 0.75 + rng.Float64()/2
		total += gaps[i]
	}
	subs := make([]submission, n)
	var cum float64
	var block []int
	for i := range subs {
		if len(block) == 0 {
			block = rng.Perm(len(mixKinds))
		}
		subs[i] = submission{
			at:   time.Duration(seconds * cum / total * float64(time.Second)),
			kind: block[0],
			seed: seeds[rng.Intn(mixSeeds)],
		}
		block = block[1:]
		cum += gaps[i]
	}
	return subs, seeds
}

// recordedDigests holds the SHA-256 of the canonical report of every
// scenario the benchmark runs, keyed by scenarioKey. -record rewrites
// the file.
//
//go:embed digests.json
var recordedDigests []byte

type digestTable map[string]string

func loadDigests() (digestTable, error) {
	var d digestTable
	if err := json.Unmarshal(recordedDigests, &d); err != nil {
		return nil, fmt.Errorf("perfbench: digests.json: %w", err)
	}
	return d, nil
}

// scenarioKey names a scenario by its canonical command line.
func scenarioKey(sc run.Scenario) string { return strings.Join(sc.Args(), " ") }

// digest hashes a report's canonical form: wall-clock fields stripped,
// so it is the same for every run of one scenario.
func digest(rep exp.Report) (string, error) {
	var buf bytes.Buffer
	if err := run.Canonical(rep).WriteJSON(&buf); err != nil {
		return "", err
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:]), nil
}

// check returns "" when rep is a clean run of sc whose digest matches
// the recorded one, and the reason otherwise.
func (d digestTable) check(sc run.Scenario, rep exp.Report) string {
	key := scenarioKey(sc)
	for _, r := range rep.Results {
		if r.Error != "" {
			return fmt.Sprintf("%s: %s failed: %s", key, r.ID, r.Error)
		}
	}
	if len(rep.Results) != len(sc.IDs()) {
		return fmt.Sprintf("%s: %d results for %d experiments", key, len(rep.Results), len(sc.IDs()))
	}
	got, err := digest(rep)
	if err != nil {
		return fmt.Sprintf("%s: digest: %v", key, err)
	}
	want, ok := d[key]
	if !ok {
		return fmt.Sprintf("%s: no recorded digest", key)
	}
	if got != want {
		return fmt.Sprintf("%s: digest %.12s, recorded %.12s", key, got, want)
	}
	return ""
}

// namedScenarios lists every scenario the benchmark can run, tiny ones
// included.
func namedScenarios() []run.Scenario {
	var out []run.Scenario
	for s := int64(1); s <= seedPool; s++ {
		for _, w := range []string{paperEval, fleet} {
			out = append(out, batchScenario(w, s, false), batchScenario(w, s, true))
		}
		for _, k := range mixKinds {
			out = append(out, k.scenario(s))
		}
	}
	return out
}

// record runs every named scenario once and writes their digests to
// path.
func record(ctx context.Context, path string) error {
	d := digestTable{}
	eng := run.New(run.Options{Config: engine.DefaultConfig(), Tool: "perfbench"})
	for _, sc := range namedScenarios() {
		key := scenarioKey(sc)
		if _, ok := d[key]; ok {
			continue
		}
		rep, err := eng.Execute(ctx, sc, run.ExecOpts{})
		if err != nil {
			return fmt.Errorf("%s: %w", key, err)
		}
		if len(rep.Manifest.Failed) > 0 {
			return fmt.Errorf("%s: experiments failed: %v", key, rep.Manifest.Failed)
		}
		if d[key], err = digest(rep); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "perfbench: recorded %s\n", key)
	}
	data, err := json.MarshalIndent(d, "", "  ") // map keys come out sorted
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Package run is the run-engine layer between the front ends (the
// facilsim CLI, the facild daemon) and the experiment stack: it owns
// the scenario schema, experiment dispatch with per-identifier
// overrides, Lab construction with tracer and progress wiring, manifest
// assembly and result export. cmd/facilsim and internal/daemon are thin
// shells over this package — a scenario runs identically (byte-for-byte
// in its Report tables) whichever front end submits it.
package run

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"facil/internal/cluster"
	"facil/internal/exp"
	"facil/internal/serve"
)

// Scenario is one engine invocation: the experiment identifiers to run
// plus the parameter overrides the CLI exposes as flags. The JSON form
// is the daemon's POST /runs body and the record/replay file format;
// field names mirror the facilsim flag names, so a recorded scenario
// reads like the command line that produced it.
//
// QueueCap and SLO use -1 (the CLI flag default) for "keep the
// experiment's own default", because 0 is meaningful for both (0 =
// unbounded queue / no SLO). Decode layers JSON over DefaultScenario so
// omitted fields keep that semantics.
type Scenario struct {
	// Experiments lists the identifiers to run, in order (empty = every
	// experiment in DESIGN.md order). Merged from positional arguments
	// and -id on the CLI.
	Experiments []string `json:"experiments,omitempty"`
	// Queries overrides the per-dataset query count of the dataset and
	// serving experiments (0 = experiment default).
	Queries int `json:"queries,omitempty"`
	// Seed overrides the sampling seed (0 = experiment default).
	Seed int64 `json:"seed,omitempty"`
	// Scale is tab1's memory down-scale factor (0 = default 8,
	// 1 = paper-size).
	Scale int64 `json:"scale,omitempty"`
	// Rates is serving2's comma-separated arrival-rate sweep in q/s
	// ("" = default).
	Rates string `json:"rates,omitempty"`
	// Replicas is serving2's comma-separated replica-count sweep
	// ("" = default).
	Replicas string `json:"replicas,omitempty"`
	// Modes is the comma-separated lane-scheduler sweep for serving2 and
	// resilience ("" = default).
	Modes string `json:"modes,omitempty"`
	// QueueCap bounds the admission queue of serving2/resilience
	// (0 = unbounded, -1 = experiment default). Not omitempty: 0 is
	// meaningful, so the recorded form always spells it out.
	QueueCap int `json:"queuecap"`
	// SLO is the TTLT goodput deadline in seconds (0 = none,
	// -1 = experiment default). Not omitempty, as for QueueCap.
	SLO float64 `json:"slo"`
	// Faults is resilience's comma-separated lane-MTBF sweep in seconds
	// ("" = default).
	Faults string `json:"faults,omitempty"`
	// FaultSeed is resilience's fault-scenario seed (0 = default).
	FaultSeed int64 `json:"faultseed,omitempty"`
	// Policy is resilience's comma-separated degradation-policy sweep
	// ("" = default). The cluster experiment reads a single policy from
	// it (a one-entry list) as each device's degradation policy.
	Policy string `json:"policy,omitempty"`
	// Strategy is the cluster experiment's comma-separated
	// balancing-strategy sweep ("" = all four).
	Strategy string `json:"strategy,omitempty"`
	// Fleet is the cluster device-class roster as a
	// "platform[/macN]:count" comma list, e.g. "jetson:26,ideapad/mac8:26"
	// ("" = experiment default).
	Fleet string `json:"fleet,omitempty"`
	// Devices rescales the cluster fleet (default or -fleet) to a total
	// device count, preserving the class mix (0 = keep the roster's own
	// counts).
	Devices int `json:"devices,omitempty"`
	// Rate is the cluster-wide arrival rate in q/s (0 = default).
	Rate float64 `json:"rate,omitempty"`
	// Sync is the cluster telemetry-barrier interval in virtual seconds
	// (0 = default).
	Sync float64 `json:"sync,omitempty"`
	// Steal toggles the cluster experiment's cross-device migration rows
	// (1 = on, 0 = off, -1 = experiment default). Not omitempty: 0 is
	// meaningful, so the recorded form always spells it out.
	Steal int `json:"steal"`
	// StealThreshold is the in-system depth that triggers stealing from a
	// healthy device (0 = breaker-driven evacuation only, -1 = experiment
	// default). Not omitempty, as for Steal.
	StealThreshold int `json:"stealthreshold"`
	// StealScore picks the cluster steal-destination scoring: "depth"
	// (least-loaded) or "latency" (TTFT-EWMA expected-wait proxy);
	// "" keeps the experiment default.
	StealScore string `json:"stealscore,omitempty"`
	// TuneBudget overrides the maptune candidate budget per cell
	// (0 = experiment default).
	TuneBudget int `json:"tunebudget,omitempty"`
	// TuneSeed overrides the maptune mutation seed (0 = experiment
	// default).
	TuneSeed int64 `json:"tuneseed,omitempty"`
}

// DefaultScenario returns the scenario matching facilsim's flag
// defaults: every experiment, every override at its "experiment
// default" sentinel.
func DefaultScenario() Scenario {
	return Scenario{QueueCap: -1, SLO: -1, Steal: -1, StealThreshold: -1}
}

// Decode parses one scenario JSON document layered over the defaults,
// so omitted fields keep their CLI-default semantics. Unknown fields
// are rejected — a typo'd override should fail the submission, not
// silently run the default.
func Decode(r io.Reader) (Scenario, error) {
	sc := DefaultScenario()
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sc); err != nil {
		return Scenario{}, fmt.Errorf("run: bad scenario: %w", err)
	}
	return sc, nil
}

// Load replays a scenario file recorded by Save (or written by hand).
func Load(path string) (Scenario, error) {
	f, err := os.Open(path)
	if err != nil {
		return Scenario{}, err
	}
	defer f.Close()
	sc, err := Decode(f)
	if err != nil {
		return Scenario{}, fmt.Errorf("%s: %w", path, err)
	}
	return sc, nil
}

// Save records the scenario as an indented JSON file a later -scenario
// flag or daemon POST can replay.
func (sc Scenario) Save(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(sc); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// IDs returns the experiment identifiers the scenario runs: its
// explicit list, or every experiment in DESIGN.md order when empty.
func (sc Scenario) IDs() []string {
	if len(sc.Experiments) > 0 {
		return sc.Experiments
	}
	return exp.AllIDs
}

// Args renders the scenario back to its canonical facilsim flag form.
// Manifests stamp it as the run's command line, so a daemon-produced
// report names the CLI invocation that reproduces it.
func (sc Scenario) Args() []string {
	var args []string
	str := func(flag, v string) {
		if v != "" {
			args = append(args, "-"+flag, v)
		}
	}
	num := func(flag string, v int64) {
		if v != 0 {
			args = append(args, "-"+flag, strconv.FormatInt(v, 10))
		}
	}
	if len(sc.Experiments) > 0 {
		str("id", strings.Join(sc.Experiments, ","))
	}
	num("queries", int64(sc.Queries))
	num("seed", sc.Seed)
	num("scale", sc.Scale)
	str("rates", sc.Rates)
	str("replicas", sc.Replicas)
	str("modes", sc.Modes)
	if sc.QueueCap >= 0 {
		args = append(args, "-queuecap", strconv.Itoa(sc.QueueCap))
	}
	if sc.SLO >= 0 {
		args = append(args, "-slo", strconv.FormatFloat(sc.SLO, 'g', -1, 64))
	}
	str("faults", sc.Faults)
	num("faultseed", sc.FaultSeed)
	str("policy", sc.Policy)
	str("strategy", sc.Strategy)
	str("fleet", sc.Fleet)
	num("devices", int64(sc.Devices))
	if sc.Rate > 0 {
		args = append(args, "-rate", strconv.FormatFloat(sc.Rate, 'g', -1, 64))
	}
	if sc.Sync > 0 {
		args = append(args, "-sync", strconv.FormatFloat(sc.Sync, 'g', -1, 64))
	}
	if sc.Steal >= 0 {
		args = append(args, "-steal="+strconv.FormatBool(sc.Steal != 0))
	}
	if sc.StealThreshold >= 0 {
		args = append(args, "-stealthreshold", strconv.Itoa(sc.StealThreshold))
	}
	str("stealscore", sc.StealScore)
	num("tunebudget", int64(sc.TuneBudget))
	num("tuneseed", sc.TuneSeed)
	return args
}

// Validate resolves every experiment identifier and parses every sweep
// list, returning the first problem. The daemon rejects a bad scenario
// at submission with this; the CLI instead lets unknown identifiers
// surface as per-experiment failures so one typo cannot take down a
// batch of valid experiments.
func (sc Scenario) Validate() error {
	if err := sc.checkSizes(); err != nil {
		return err
	}
	for _, id := range sc.Experiments {
		if !exp.Known(id) {
			return fmt.Errorf("run: unknown experiment %q (see -list or GET /experiments)", id)
		}
	}
	s2 := exp.DefaultServing2Config()
	if err := sc.applyServing2(&s2); err != nil {
		return err
	}
	rc := exp.DefaultResilienceConfig()
	if err := sc.applyResilience(&rc); err != nil {
		return err
	}
	cc := exp.DefaultClusterConfig()
	if err := sc.applyCluster(&cc); err != nil {
		return err
	}
	mt := exp.DefaultMapTuneConfig()
	if err := sc.applyMapTune(&mt); err != nil {
		return err
	}
	return nil
}

// checkSizes rejects negative sizes. 0 already selects the experiment
// default, so a negative value is a mistake, never a request for the
// default.
func (sc Scenario) checkSizes() error {
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"queries", float64(sc.Queries)},
		{"devices", float64(sc.Devices)},
		{"scale", float64(sc.Scale)},
		{"rate", sc.Rate},
		{"sync", sc.Sync},
		{"tunebudget", float64(sc.TuneBudget)},
	} {
		if f.v < 0 {
			return fmt.Errorf("run: bad %s %g (want >= 0)", f.name, f.v)
		}
	}
	return nil
}

// applyServing2 folds the scenario's overrides into a serving2 config.
func (sc Scenario) applyServing2(cfg *exp.Serving2Config) error {
	if sc.Queries > 0 {
		cfg.Queries = sc.Queries
	}
	if sc.Seed != 0 {
		cfg.Seed = sc.Seed
	}
	if sc.QueueCap >= 0 {
		cfg.QueueCap = sc.QueueCap
	}
	if sc.SLO >= 0 {
		cfg.DeadlineTTLT = sc.SLO
	}
	if sc.Rates != "" {
		cfg.Rates = cfg.Rates[:0]
		for _, f := range strings.Split(sc.Rates, ",") {
			r, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
			if err != nil || r <= 0 {
				return fmt.Errorf("run: bad rates entry %q", f)
			}
			cfg.Rates = append(cfg.Rates, r)
		}
	}
	if sc.Replicas != "" {
		cfg.Replicas = cfg.Replicas[:0]
		for _, f := range strings.Split(sc.Replicas, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil || n <= 0 {
				return fmt.Errorf("run: bad replicas entry %q", f)
			}
			cfg.Replicas = append(cfg.Replicas, n)
		}
	}
	if sc.Modes != "" {
		cfg.Modes = cfg.Modes[:0]
		for _, f := range strings.Split(sc.Modes, ",") {
			m, err := serve.ParseMode(strings.TrimSpace(f))
			if err != nil {
				return err
			}
			cfg.Modes = append(cfg.Modes, m)
		}
	}
	return nil
}

// applyResilience folds the scenario's overrides into a resilience
// config.
func (sc Scenario) applyResilience(cfg *exp.ResilienceConfig) error {
	if sc.Queries > 0 {
		cfg.Queries = sc.Queries
	}
	if sc.Seed != 0 {
		cfg.Seed = sc.Seed
	}
	if sc.FaultSeed != 0 {
		cfg.FaultSeed = sc.FaultSeed
	}
	if sc.QueueCap >= 0 {
		cfg.QueueCap = sc.QueueCap
	}
	if sc.SLO >= 0 {
		cfg.DeadlineTTLT = sc.SLO
	}
	if sc.Faults != "" {
		cfg.LaneMTBFs = cfg.LaneMTBFs[:0]
		for _, f := range strings.Split(sc.Faults, ",") {
			v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
			if err != nil || v <= 0 {
				return fmt.Errorf("run: bad faults entry %q (want a positive MTBF in seconds)", f)
			}
			cfg.LaneMTBFs = append(cfg.LaneMTBFs, v)
		}
	}
	if sc.Policy != "" {
		cfg.Policies = cfg.Policies[:0]
		for _, f := range strings.Split(sc.Policy, ",") {
			p, err := serve.ParsePolicy(strings.TrimSpace(f))
			if err != nil {
				return err
			}
			cfg.Policies = append(cfg.Policies, p)
		}
	}
	if sc.Modes != "" {
		cfg.Modes = cfg.Modes[:0]
		for _, f := range strings.Split(sc.Modes, ",") {
			m, err := serve.ParseMode(strings.TrimSpace(f))
			if err != nil {
				return err
			}
			cfg.Modes = append(cfg.Modes, m)
		}
	}
	return nil
}

// applyCluster folds the scenario's overrides into a cluster config.
// The shared fields keep their meaning from the other serving
// experiments: Queries/Seed/FaultSeed seed the run, QueueCap and SLO
// bound each device, a single-entry Policy list picks every device's
// degradation policy, and a single-entry Faults list overrides the
// lane MTBF on the faulty fraction of the fleet.
func (sc Scenario) applyCluster(cfg *exp.ClusterConfig) error {
	if sc.Queries > 0 {
		cfg.Queries = sc.Queries
	}
	if sc.Seed != 0 {
		cfg.Seed = sc.Seed
	}
	if sc.FaultSeed != 0 {
		cfg.FaultSeed = sc.FaultSeed
	}
	if sc.QueueCap >= 0 {
		cfg.QueueCap = sc.QueueCap
	}
	if sc.SLO >= 0 {
		cfg.DeadlineTTLT = sc.SLO
	}
	if sc.Rate > 0 {
		cfg.Rate = sc.Rate
	}
	if sc.Sync > 0 {
		cfg.SyncInterval = sc.Sync
	}
	if sc.Strategy != "" {
		cfg.Strategies = cfg.Strategies[:0]
		for _, f := range strings.Split(sc.Strategy, ",") {
			k, err := cluster.ParseStrategy(strings.TrimSpace(f))
			if err != nil {
				return err
			}
			cfg.Strategies = append(cfg.Strategies, k)
		}
	}
	if sc.Fleet != "" {
		classes, err := cluster.ParseFleet(sc.Fleet)
		if err != nil {
			return err
		}
		cfg.Fleet = classes
	}
	if sc.Devices > 0 {
		cfg.Fleet = cluster.ScaleFleet(cfg.Fleet, sc.Devices)
	}
	if sc.Policy != "" {
		ps := strings.Split(sc.Policy, ",")
		if len(ps) != 1 {
			return fmt.Errorf("run: the cluster experiment takes a single -policy, got %q", sc.Policy)
		}
		p, err := serve.ParsePolicy(strings.TrimSpace(ps[0]))
		if err != nil {
			return err
		}
		cfg.Policy = p
	}
	if sc.Faults != "" {
		fs := strings.Split(sc.Faults, ",")
		if len(fs) != 1 {
			return fmt.Errorf("run: the cluster experiment takes a single -faults MTBF, got %q", sc.Faults)
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(fs[0]), 64)
		if err != nil || v <= 0 {
			return fmt.Errorf("run: bad faults entry %q (want a positive MTBF in seconds)", fs[0])
		}
		cfg.FaultMTBF = v
	}
	if sc.Steal >= 0 {
		cfg.Migration = sc.Steal != 0
	}
	if sc.StealThreshold >= 0 {
		cfg.StealThreshold = sc.StealThreshold
	}
	switch sc.StealScore {
	case "":
	case "depth":
		cfg.LatencySteal = false
	case "latency":
		cfg.LatencySteal = true
	default:
		return fmt.Errorf("run: bad stealscore %q (want depth or latency)", sc.StealScore)
	}
	return nil
}

// applyMapTune folds the scenario's overrides into a maptune config.
func (sc Scenario) applyMapTune(cfg *exp.MapTuneConfig) error {
	if sc.TuneBudget > 0 {
		cfg.Budget = sc.TuneBudget
	}
	if sc.TuneSeed != 0 {
		cfg.Seed = sc.TuneSeed
	}
	return nil
}

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
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"reflect"
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
// reads like the command line that produced it. Every field after
// Experiments is a knob with one row in the knobs table.
//
// QueueCap, SLO, Steal and StealThreshold use -1 (the CLI flag default)
// for "keep the experiment's own default", because 0 is meaningful for
// each (unbounded queue, no SLO, migration off, breaker-driven stealing
// only). Decode layers JSON over DefaultScenario so omitted fields keep
// that semantics.
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

// A knob is one row of the scenario override table: a Scenario field
// after Experiments, exposed as a facilsim flag and a JSON key.
type knob struct {
	// name is the flag name and the JSON key.
	name  string
	usage string
	// field returns the knob's Scenario field: *int, *int64, *float64,
	// *string, or *tristate for the bool-flagged Steal.
	field func(*Scenario) any
	// keep is the numeric value that keeps the experiment default: 0,
	// or -1 where 0 is meaningful. String knobs keep it with "".
	keep float64
	// min is the lowest accepted numeric value besides keep (-Inf for
	// seeds). NaN and ±Inf are never accepted.
	min float64
}

// knobs lists every scenario override once, in Scenario field order
// (which is also the Args order). facilsim's flags, its -scenario
// overlay, Args, DefaultScenario and the range check all derive from
// it, so a new knob is one Scenario field plus one row here.
var knobs = []knob{
	{name: "queries", usage: "dataset experiments: queries per dataset (0 = default)",
		field: func(s *Scenario) any { return &s.Queries }},
	{name: "seed", usage: "dataset experiments: sampling seed (0 = default)",
		field: func(s *Scenario) any { return &s.Seed }, min: math.Inf(-1)},
	{name: "scale", usage: "tab1: memory down-scale factor (0 = default 8, 1 = paper-size)",
		field: func(s *Scenario) any { return &s.Scale }},
	{name: "rates", usage: "serving2: comma-separated arrival rates in q/s (empty = default)",
		field: func(s *Scenario) any { return &s.Rates }},
	{name: "replicas", usage: "serving2: comma-separated replica counts (empty = default)",
		field: func(s *Scenario) any { return &s.Replicas }},
	{name: "modes", usage: "serving2: comma-separated modes (serial, cooperative, relayout-hybrid)",
		field: func(s *Scenario) any { return &s.Modes }},
	{name: "queuecap", usage: "serving2/resilience: admission queue capacity (0 = unbounded, -1 = default)",
		field: func(s *Scenario) any { return &s.QueueCap }, keep: -1},
	{name: "slo", usage: "serving2/resilience: TTLT goodput deadline in seconds (0 = none, -1 = default)",
		field: func(s *Scenario) any { return &s.SLO }, keep: -1},
	{name: "faults", usage: "resilience: comma-separated lane MTBFs in seconds (empty = default)",
		field: func(s *Scenario) any { return &s.Faults }},
	{name: "faultseed", usage: "resilience: fault-scenario seed (0 = default)",
		field: func(s *Scenario) any { return &s.FaultSeed }, min: math.Inf(-1)},
	{name: "policy", usage: "resilience: comma-separated degradation policies (none, soc-fallback, failover)",
		field: func(s *Scenario) any { return &s.Policy }},
	{name: "strategy", usage: "cluster: comma-separated balancing strategies (round-robin, least-loaded, latency-weighted, slo-tiered; empty = all)",
		field: func(s *Scenario) any { return &s.Strategy }},
	{name: "fleet", usage: "cluster: device-class roster as platform[/macN]:count comma list (empty = default)",
		field: func(s *Scenario) any { return &s.Fleet }},
	{name: "devices", usage: "cluster: rescale the fleet to this many devices, preserving the class mix (0 = keep roster counts)",
		field: func(s *Scenario) any { return &s.Devices }},
	{name: "rate", usage: "cluster: cluster-wide arrival rate in q/s (0 = default)",
		field: func(s *Scenario) any { return &s.Rate }},
	{name: "sync", usage: "cluster: telemetry-barrier interval in virtual seconds (0 = default)",
		field: func(s *Scenario) any { return &s.Sync }},
	{name: "steal", usage: "cluster: add cross-device migration (+steal) rows to the strategy sweep",
		field: func(s *Scenario) any { return (*tristate)(&s.Steal) }, keep: -1},
	{name: "stealthreshold", usage: "cluster: in-system depth that triggers stealing from a healthy device (0 = breaker-driven only, -1 = default)",
		field: func(s *Scenario) any { return &s.StealThreshold }, keep: -1},
	{name: "stealscore", usage: "cluster: steal-destination scoring, depth or latency (empty = default)",
		field: func(s *Scenario) any { return &s.StealScore }},
	{name: "tunebudget", usage: "maptune: candidate budget per (platform, workload) cell (0 = default)",
		field: func(s *Scenario) any { return &s.TuneBudget }},
	{name: "tuneseed", usage: "maptune: mutation-stream seed (0 = default)",
		field: func(s *Scenario) any { return &s.TuneSeed }, min: math.Inf(-1)},
}

// tristate is Steal's flag form: a bool flag over 1 (on), 0 (off) and
// -1 (keep the default, which is on, so it reads as true).
type tristate int

func (t *tristate) String() string   { return strconv.FormatBool(*t != 0) }
func (t *tristate) IsBoolFlag() bool { return true }
func (t *tristate) Set(s string) error {
	on, err := strconv.ParseBool(s)
	if err != nil {
		return err
	}
	*t = 0
	if on {
		*t = 1
	}
	return nil
}

// value returns k's field in sc.
func (k knob) value(sc *Scenario) reflect.Value { return reflect.ValueOf(k.field(sc)).Elem() }

// num returns a numeric knob's value; ok is false for a string knob.
func (k knob) num(sc *Scenario) (float64, bool) {
	switch v := k.value(sc); {
	case v.CanInt():
		return float64(v.Int()), true
	case v.CanFloat():
		return v.Float(), true
	}
	return 0, false
}

// bind registers k on fs as a flag over its field in sc, with the
// field's current value as the flag default.
func (k knob) bind(fs *flag.FlagSet, sc *Scenario) {
	switch p := k.field(sc).(type) {
	case *int:
		fs.IntVar(p, k.name, *p, k.usage)
	case *int64:
		fs.Int64Var(p, k.name, *p, k.usage)
	case *float64:
		fs.Float64Var(p, k.name, *p, k.usage)
	case *string:
		fs.StringVar(p, k.name, *p, k.usage)
	case *tristate:
		fs.Var(p, k.name, k.usage)
	}
}

// args renders k in flag form, or nil while it keeps the default.
func (k knob) args(sc *Scenario) []string {
	if v, ok := k.num(sc); ok && v == k.keep {
		return nil
	}
	name := "-" + k.name
	switch p := k.field(sc).(type) {
	case *int:
		return []string{name, strconv.Itoa(*p)}
	case *int64:
		return []string{name, strconv.FormatInt(*p, 10)}
	case *float64:
		return []string{name, strconv.FormatFloat(*p, 'g', -1, 64)}
	case *tristate:
		return []string{name + "=" + p.String()}
	case *string:
		if *p != "" {
			return []string{name, *p}
		}
	}
	return nil
}

// check rejects a non-finite float, a value other than keep below k's
// bound, and a steal outside {-1, 0, 1}. keep already selects the
// experiment default, so any other out-of-range value is a mistake,
// never a request for the default.
func (k knob) check(sc *Scenario) error {
	v, ok := k.num(sc)
	_, tri := k.field(sc).(*tristate)
	switch {
	case !ok || v == k.keep:
		return nil
	case math.IsNaN(v) || math.IsInf(v, 0):
		return fmt.Errorf("run: bad %s %g (want a finite number)", k.name, v)
	case tri && v != 0 && v != 1:
		return fmt.Errorf("run: bad %s %g (want -1, 0 or 1)", k.name, v)
	case v < k.min && k.keep < k.min:
		return fmt.Errorf("run: bad %s %g (want %g or >= %g)", k.name, v, k.keep, k.min)
	case v < k.min:
		return fmt.Errorf("run: bad %s %g (want >= %g)", k.name, v, k.min)
	}
	return nil
}

// checkKnobs range-checks every knob. Validate and Engine.runOne both
// call it, so the daemon answers 400 and the CLI fails the run.
func (sc *Scenario) checkKnobs() error {
	for _, k := range knobs {
		if err := k.check(sc); err != nil {
			return err
		}
	}
	return nil
}

// BindFlags registers one flag per knob on fs, each defaulting to "keep
// the experiment default". The returned overlay copies every knob flag
// the command line set explicitly into a scenario, so explicit flags
// override a replayed file and the rest of it stands.
func BindFlags(fs *flag.FlagSet) (overlay func(*Scenario)) {
	flags := DefaultScenario()
	for _, k := range knobs {
		k.bind(fs, &flags)
	}
	return func(sc *Scenario) {
		fs.Visit(func(f *flag.Flag) {
			for _, k := range knobs {
				if k.name == f.Name {
					k.value(sc).Set(k.value(&flags))
				}
			}
		})
	}
}

// DefaultScenario returns the scenario matching facilsim's flag
// defaults: every experiment, every knob at its "keep the experiment
// default" value.
func DefaultScenario() Scenario {
	var sc Scenario
	for _, k := range knobs {
		if v := k.value(&sc); v.CanInt() {
			v.SetInt(int64(k.keep))
		} else if v.CanFloat() {
			v.SetFloat(k.keep)
		}
	}
	return sc
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
// flag or daemon POST can replay. It range-checks the knobs and encodes
// before it creates the file, so a scenario that cannot replay (a NaN
// SLO, which JSON cannot carry) leaves no file behind.
func (sc Scenario) Save(path string) error {
	if err := sc.checkKnobs(); err != nil {
		return err
	}
	data, err := json.MarshalIndent(sc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o666)
}

// IDs returns the experiment identifiers the scenario runs: its
// explicit list, or every experiment in DESIGN.md order when empty.
func (sc Scenario) IDs() []string {
	if len(sc.Experiments) > 0 {
		return sc.Experiments
	}
	return exp.AllIDs
}

// Args renders the scenario back to its canonical facilsim flag form:
// -id, then every knob that differs from its default, in table order.
// Manifests stamp it as the run's command line, so a daemon-produced
// report names the CLI invocation that reproduces it.
func (sc Scenario) Args() []string {
	var args []string
	if len(sc.Experiments) > 0 {
		args = append(args, "-id", strings.Join(sc.Experiments, ","))
	}
	for _, k := range knobs {
		args = append(args, k.args(&sc)...)
	}
	return args
}

// Validate range-checks every knob, resolves every experiment
// identifier and parses every sweep list, returning the first problem.
// The daemon rejects a bad scenario at submission with this; the CLI
// instead lets unknown identifiers surface as per-experiment failures
// so one typo cannot take down a batch of valid experiments.
func (sc Scenario) Validate() error {
	if err := sc.checkKnobs(); err != nil {
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
	return sc.applyCluster(&cc)
}

// applyServing folds the overrides every serving experiment shares: the
// query count and seed, the admission-queue bound and the SLO.
func (sc Scenario) applyServing(queries *int, seed *int64, queueCap *int, slo *float64) {
	if sc.Queries > 0 {
		*queries = sc.Queries
	}
	if sc.Seed != 0 {
		*seed = sc.Seed
	}
	if sc.QueueCap >= 0 {
		*queueCap = sc.QueueCap
	}
	if sc.SLO >= 0 {
		*slo = sc.SLO
	}
}

// applyServing2 folds the scenario's overrides into a serving2 config.
func (sc Scenario) applyServing2(cfg *exp.Serving2Config) error {
	sc.applyServing(&cfg.Queries, &cfg.Seed, &cfg.QueueCap, &cfg.DeadlineTTLT)
	if err := parseList(&cfg.Rates, sc.Rates, rateEntry); err != nil {
		return err
	}
	if err := parseList(&cfg.Replicas, sc.Replicas, replicaEntry); err != nil {
		return err
	}
	return parseList(&cfg.Modes, sc.Modes, serve.ParseMode)
}

// applyResilience folds the scenario's overrides into a resilience
// config.
func (sc Scenario) applyResilience(cfg *exp.ResilienceConfig) error {
	sc.applyServing(&cfg.Queries, &cfg.Seed, &cfg.QueueCap, &cfg.DeadlineTTLT)
	if sc.FaultSeed != 0 {
		cfg.FaultSeed = sc.FaultSeed
	}
	if err := parseList(&cfg.LaneMTBFs, sc.Faults, mtbfEntry); err != nil {
		return err
	}
	if err := parseList(&cfg.Policies, sc.Policy, serve.ParsePolicy); err != nil {
		return err
	}
	return parseList(&cfg.Modes, sc.Modes, serve.ParseMode)
}

// applyCluster folds the scenario's overrides into a cluster config.
// The shared fields keep their meaning from the other serving
// experiments: Queries/Seed/FaultSeed seed the run, QueueCap and SLO
// bound each device, a single-entry Policy list picks every device's
// degradation policy, and a single-entry Faults list overrides the
// lane MTBF on the faulty fraction of the fleet.
func (sc Scenario) applyCluster(cfg *exp.ClusterConfig) error {
	sc.applyServing(&cfg.Queries, &cfg.Seed, &cfg.QueueCap, &cfg.DeadlineTTLT)
	if sc.FaultSeed != 0 {
		cfg.FaultSeed = sc.FaultSeed
	}
	if sc.Rate > 0 {
		cfg.Rate = sc.Rate
	}
	if sc.Sync > 0 {
		cfg.SyncInterval = sc.Sync
	}
	if err := parseList(&cfg.Strategies, sc.Strategy, cluster.ParseStrategy); err != nil {
		return err
	}
	if sc.Fleet != "" {
		fleet, err := cluster.ParseFleet(sc.Fleet)
		if err != nil {
			return err
		}
		cfg.Fleet = fleet
	}
	if sc.Devices > 0 {
		cfg.Fleet = cluster.ScaleFleet(cfg.Fleet, sc.Devices)
	}
	var policies []serve.Policy
	if err := parseList(&policies, sc.Policy, serve.ParsePolicy); err != nil {
		return err
	}
	if len(policies) > 1 {
		return fmt.Errorf("run: the cluster experiment takes a single -policy, got %q", sc.Policy)
	}
	if len(policies) == 1 {
		cfg.Policy = policies[0]
	}
	var mtbfs []float64
	if err := parseList(&mtbfs, sc.Faults, mtbfEntry); err != nil {
		return err
	}
	if len(mtbfs) > 1 {
		return fmt.Errorf("run: the cluster experiment takes a single -faults MTBF, got %q", sc.Faults)
	}
	if len(mtbfs) == 1 {
		cfg.FaultMTBF = mtbfs[0]
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

// parseList replaces *dst with the entries of a comma-separated sweep
// override, each trimmed and parsed; an empty list keeps *dst.
func parseList[T any](dst *[]T, list string, parse func(string) (T, error)) error {
	if list == "" {
		return nil
	}
	var out []T
	for _, f := range strings.Split(list, ",") {
		v, err := parse(strings.TrimSpace(f))
		if err != nil {
			return err
		}
		out = append(out, v)
	}
	*dst = out
	return nil
}

// positive wraps a number parser for parseList: an entry that does not
// parse, or is not finite and > 0, fails with the quoted entry in bad.
func positive[T int | float64](parse func(string) (T, error), bad string) func(string) (T, error) {
	return func(f string) (T, error) {
		v, err := parse(f)
		if err != nil || !(v > 0) || math.IsInf(float64(v), 1) {
			return 0, fmt.Errorf(bad, f)
		}
		return v, nil
	}
}

func parseFloat(s string) (float64, error) { return strconv.ParseFloat(s, 64) }

var (
	rateEntry    = positive(parseFloat, "run: bad rates entry %q")
	replicaEntry = positive(strconv.Atoi, "run: bad replicas entry %q")
	mtbfEntry    = positive(parseFloat, "run: bad faults entry %q (want a positive MTBF in seconds)")
)

// applyMapTune folds the scenario's overrides into a maptune config.
func (sc Scenario) applyMapTune(cfg *exp.MapTuneConfig) {
	if sc.TuneBudget > 0 {
		cfg.Budget = sc.TuneBudget
	}
	if sc.TuneSeed != 0 {
		cfg.Seed = sc.TuneSeed
	}
}

package run

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"facil/internal/engine"
	"facil/internal/exp"
)

func TestDecodeDefaults(t *testing.T) {
	sc, err := Decode(strings.NewReader(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	if sc.QueueCap != -1 || sc.SLO != -1 {
		t.Errorf("empty scenario = %+v, want queuecap/slo at their -1 sentinels", sc)
	}
	sc, err = Decode(strings.NewReader(`{"queuecap": 0, "slo": 0, "experiments": ["fig3"]}`))
	if err != nil {
		t.Fatal(err)
	}
	if sc.QueueCap != 0 || sc.SLO != 0 {
		t.Errorf("explicit zeros decoded as %+v, want unbounded queue / no SLO", sc)
	}
	if !reflect.DeepEqual(sc.Experiments, []string{"fig3"}) {
		t.Errorf("experiments = %v", sc.Experiments)
	}
}

func TestDecodeRejectsUnknownFields(t *testing.T) {
	if _, err := Decode(strings.NewReader(`{"quries": 5}`)); err == nil {
		t.Fatal("typo'd field decoded without error")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	sc := DefaultScenario()
	sc.Experiments = []string{"serving2"}
	sc.Rates = "0.5,1"
	sc.QueueCap = 0
	sc.SLO = 12.5
	path := filepath.Join(t.TempDir(), "sc.json")
	if err := sc.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, sc) {
		t.Errorf("round trip: got %+v, want %+v", got, sc)
	}
}

func TestIDsDefaultsToAll(t *testing.T) {
	if got := DefaultScenario().IDs(); !reflect.DeepEqual(got, exp.AllIDs) {
		t.Errorf("empty scenario IDs = %v, want exp.AllIDs", got)
	}
	sc := Scenario{Experiments: []string{"tab2", "fig3"}}
	if got := sc.IDs(); !reflect.DeepEqual(got, []string{"tab2", "fig3"}) {
		t.Errorf("IDs = %v", got)
	}
}

func TestArgsCanonicalForm(t *testing.T) {
	if got := DefaultScenario().Args(); len(got) != 0 {
		t.Errorf("default scenario Args = %v, want none", got)
	}
	sc := DefaultScenario()
	sc.Experiments = []string{"serving2", "resilience"}
	sc.Queries = 40
	sc.QueueCap = 0
	sc.SLO = 20
	sc.Policy = "failover"
	want := []string{"-id", "serving2,resilience", "-queries", "40", "-queuecap", "0", "-slo", "20", "-policy", "failover"}
	if got := sc.Args(); !reflect.DeepEqual(got, want) {
		t.Errorf("Args = %v, want %v", got, want)
	}
}

func TestValidate(t *testing.T) {
	sc := DefaultScenario()
	sc.Experiments = []string{"fig3", "serving2"}
	sc.Rates = "0.5,1"
	sc.Modes = "cooperative"
	if err := sc.Validate(); err != nil {
		t.Errorf("valid scenario rejected: %v", err)
	}
	bad := DefaultScenario()
	bad.Experiments = []string{"fig99"}
	if err := bad.Validate(); err == nil {
		t.Error("unknown experiment accepted")
	}
	bad = DefaultScenario()
	bad.Rates = "0.5,potato"
	if err := bad.Validate(); err == nil {
		t.Error("unparsable rate accepted")
	}
	bad = DefaultScenario()
	bad.Policy = "shrug"
	if err := bad.Validate(); err == nil {
		t.Error("unknown policy accepted")
	}
	bad = DefaultScenario()
	bad.StealScore = "psychic"
	if err := bad.Validate(); err == nil {
		t.Error("unknown stealscore accepted")
	}
	// 0 or -1 selects each knob's default, so a value below it or a
	// non-finite float must be rejected, not silently replaced by the
	// default.
	for _, c := range outOfRange {
		bad = DefaultScenario()
		c.set(&bad)
		err := bad.Validate()
		if err == nil || !strings.Contains(err.Error(), c.field) {
			t.Errorf("negative %s: Validate() = %v, want a %s error", c.field, err, c.field)
		}
	}
	for _, set := range []func(*Scenario){
		func(sc *Scenario) { sc.QueueCap, sc.SLO, sc.StealThreshold = -1, -1, -1 },
		func(sc *Scenario) { sc.Steal = 0 },
		func(sc *Scenario) { sc.Steal = 1 },
		func(sc *Scenario) { sc.Seed, sc.FaultSeed, sc.TuneSeed = -7, -8, -9 },
	} {
		ok := DefaultScenario()
		set(&ok)
		if err := ok.Validate(); err != nil {
			t.Errorf("in-range knobs %+v rejected: %v", ok, err)
		}
	}
	ok := DefaultScenario()
	ok.StealScore = "depth"
	ok.TuneBudget = 128
	ok.TuneSeed = 42
	if err := ok.Validate(); err != nil {
		t.Errorf("valid stealscore/tune fields rejected: %v", err)
	}
}

// outOfRange lists one out-of-range value per bounded knob, named by
// the knob the error must cite.
var outOfRange = []struct {
	field string
	set   func(*Scenario)
}{
	{"queries", func(sc *Scenario) { sc.Queries = -5 }},
	{"devices", func(sc *Scenario) { sc.Devices = -1 }},
	{"scale", func(sc *Scenario) { sc.Scale = -8 }},
	{"rate", func(sc *Scenario) { sc.Rate = -0.5 }},
	{"rate", func(sc *Scenario) { sc.Rate = math.NaN() }},
	{"rate", func(sc *Scenario) { sc.Rate = math.Inf(1) }},
	{"sync", func(sc *Scenario) { sc.Sync = -1 }},
	{"sync", func(sc *Scenario) { sc.Sync = math.NaN() }},
	{"tunebudget", func(sc *Scenario) { sc.TuneBudget = -3 }},
	{"queuecap", func(sc *Scenario) { sc.QueueCap = -5 }},
	{"slo", func(sc *Scenario) { sc.SLO = -3 }},
	{"slo", func(sc *Scenario) { sc.SLO = math.NaN() }},
	{"slo", func(sc *Scenario) { sc.SLO = math.Inf(1) }},
	{"stealthreshold", func(sc *Scenario) { sc.StealThreshold = -9 }},
	{"steal", func(sc *Scenario) { sc.Steal = 7 }},
	{"steal", func(sc *Scenario) { sc.Steal = -2 }},
	{"rates", func(sc *Scenario) { sc.Rates = "1,NaN" }},
	{"rates", func(sc *Scenario) { sc.Rates = "+Inf" }},
	{"faults", func(sc *Scenario) { sc.Faults = "NaN" }},
}

// cheapEngine builds an engine suitable for fast registry-driven tests.
func cheapEngine(t *testing.T) *Engine {
	t.Helper()
	return New(Options{Config: engine.DefaultConfig(), Tool: "runtest", Parallelism: 2})
}

func TestExecuteOrderAndFailures(t *testing.T) {
	eng := cheapEngine(t)
	sc := DefaultScenario()
	sc.Experiments = []string{"tab2", "fig99", "fig3"}
	var streamed []string
	rep, err := eng.Execute(context.Background(), sc, ExecOpts{
		Sink: func(res exp.Result) error {
			streamed = append(streamed, res.ID)
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(streamed, sc.Experiments) {
		t.Errorf("sink order = %v, want request order %v", streamed, sc.Experiments)
	}
	if len(rep.Results) != 3 {
		t.Fatalf("got %d results", len(rep.Results))
	}
	for i, id := range sc.Experiments {
		if rep.Results[i].ID != id {
			t.Errorf("results[%d].ID = %q, want %q", i, rep.Results[i].ID, id)
		}
	}
	if rep.Results[1].Error == "" || rep.Results[1].Tables != nil {
		t.Errorf("fig99 result = %+v, want error and no tables", rep.Results[1])
	}
	if rep.Results[0].Error != "" || rep.Results[2].Error != "" {
		t.Error("valid experiments failed alongside the bad one")
	}
	if !reflect.DeepEqual(rep.Manifest.Failed, []string{"fig99"}) {
		t.Errorf("manifest failed = %v", rep.Manifest.Failed)
	}
	if !reflect.DeepEqual(rep.Manifest.Experiments, sc.Experiments) {
		t.Errorf("manifest experiments = %v", rep.Manifest.Experiments)
	}
}

// TestExecuteRejectsNegativeSizes covers the CLI path, which skips
// Validate: an out-of-range knob must fail the run loudly instead of
// running the experiment at its default.
func TestExecuteRejectsNegativeSizes(t *testing.T) {
	eng := cheapEngine(t)
	for _, c := range outOfRange {
		sc := DefaultScenario()
		c.set(&sc)
		// A sweep list fails only the experiments that parse it; a
		// scalar knob fails even an experiment that ignores it.
		sc.Experiments = []string{"tab2", "serving2", "resilience"}
		rep, err := eng.Execute(context.Background(), sc, ExecOpts{})
		if err != nil {
			t.Fatal(err)
		}
		sweep := c.field == "rates" || c.field == "faults"
		failed := 0
		for _, res := range rep.Results {
			if res.Error == "" {
				continue
			}
			failed++
			if !strings.Contains(res.Error, "bad "+c.field) || res.Tables != nil {
				t.Errorf("%s with bad %s = %+v, want a bad-%s error", res.ID, c.field, res, c.field)
			}
		}
		if failed == 0 || !sweep && failed != len(rep.Results) {
			t.Errorf("bad %s failed %d of %d experiments", c.field, failed, len(rep.Results))
		}
	}
}

// TestSaveLeavesNoFileOnError: a scenario JSON cannot carry (a NaN SLO)
// fails Save without creating, truncating or half-writing the file.
func TestSaveLeavesNoFileOnError(t *testing.T) {
	sc := DefaultScenario()
	sc.SLO = math.NaN()
	path := filepath.Join(t.TempDir(), "sc.json")
	if err := sc.Save(path); err == nil {
		t.Fatal("Save accepted a NaN SLO")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("failed Save left %s behind (stat: %v)", path, err)
	}
}

func TestExecuteWritesOutDir(t *testing.T) {
	eng := cheapEngine(t)
	sc := DefaultScenario()
	sc.Experiments = []string{"tab2"}
	dir := filepath.Join(t.TempDir(), "out")
	if _, err := eng.Execute(context.Background(), sc, ExecOpts{OutDir: dir, Format: "json"}); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"tab2.json", "manifest.json"} {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if !json.Valid(data) {
			t.Errorf("%s is not valid JSON", name)
		}
	}
}

// TestCanonicalDeterminism pins the property the daemon-vs-batch test
// relies on: two executions of one scenario have byte-identical
// canonical reports even though their manifests carry different wall
// times.
func TestCanonicalDeterminism(t *testing.T) {
	sc := DefaultScenario()
	sc.Experiments = []string{"fig3", "tab2"}
	var bufs [2]bytes.Buffer
	for i := range bufs {
		rep, err := cheapEngine(t).Execute(context.Background(), sc, ExecOpts{})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Manifest.Start.IsZero() {
			t.Fatal("manifest start not stamped")
		}
		can := Canonical(rep)
		if can.Manifest.Start != (exp.Report{}).Manifest.Start {
			t.Error("Canonical kept the start timestamp")
		}
		for _, res := range can.Results {
			if res.ElapsedSeconds != 0 {
				t.Errorf("Canonical kept %s elapsed time", res.ID)
			}
		}
		if err := can.WriteJSON(&bufs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(bufs[0].Bytes(), bufs[1].Bytes()) {
		t.Error("canonical reports differ between two runs of one scenario")
	}
}

package run

import (
	"bytes"
	"flag"
	"reflect"
	"strings"
	"testing"
)

// TestKnobsMatchScenarioFields pins the one duplication the knob table
// keeps: the encoding/json tag. Row i names field i+1 (after
// Experiments) by its JSON key, and its accessor returns that field.
func TestKnobsMatchScenarioFields(t *testing.T) {
	typ := reflect.TypeOf(Scenario{})
	if got, want := len(knobs), typ.NumField()-1; got != want {
		t.Fatalf("%d knobs for %d Scenario fields after Experiments", got, want)
	}
	var sc Scenario
	for i, k := range knobs {
		f := typ.Field(i + 1)
		if tag, _, _ := strings.Cut(f.Tag.Get("json"), ","); tag != k.name {
			t.Errorf("knob %d is %q, but Scenario.%s has JSON key %q", i, k.name, f.Name, tag)
		}
		got := reflect.ValueOf(k.field(&sc)).Pointer()
		if want := reflect.ValueOf(&sc).Elem().Field(i + 1).Addr().Pointer(); got != want {
			t.Errorf("knob %q's accessor does not return Scenario.%s", k.name, f.Name)
		}
	}
}

// parseArgs parses a flag form back into a scenario the way facilsim
// does: knob flags through BindFlags' overlay onto the defaults, -id
// split on commas with blanks dropped.
func parseArgs(args []string) (Scenario, error) {
	fs := flag.NewFlagSet("args", flag.ContinueOnError)
	fs.SetOutput(new(bytes.Buffer))
	overlay := BindFlags(fs)
	ids := fs.String("id", "", "")
	if err := fs.Parse(args); err != nil {
		return Scenario{}, err
	}
	sc := DefaultScenario()
	overlay(&sc)
	for _, id := range strings.Split(*ids, ",") {
		if id = strings.TrimSpace(id); id != "" {
			sc.Experiments = append(sc.Experiments, id)
		}
	}
	return sc, nil
}

// FuzzScenarioDecode feeds arbitrary bytes through Decode. Nothing may
// panic, and a scenario that passes Validate must survive Args and the
// flag parse facilsim applies to it unchanged: the flag form is the
// manifest's reproduction command.
func FuzzScenarioDecode(f *testing.F) {
	for _, seed := range []string{
		`{}`,
		`{"experiments":["serving2","resilience"],"queries":40,"queuecap":0,"slo":20,"policy":"failover"}`,
		`{"experiments":["cluster"],"devices":8,"queries":2000,"rate":50,"steal":0,"stealscore":"depth"}`,
		`{"fleet":"jetson:2,ideapad/mac8:3","sync":0.5,"steal":1,"stealthreshold":0,"faults":"60","faultseed":-4}`,
		`{"rates":"0.5, 1","replicas":"1,2","modes":"serial,cooperative","slo":-0,"rate":-0}`,
		`{"tunebudget":16,"tuneseed":3,"experiments":[]}`,
		`{"steal":7,"queuecap":-5,"slo":-3}`,
		`{"scale":1,"seed":9007199254740993,"sync":0.30000000000000004,"rate":3.141592653589793}`,
		`{"experiments":["cluster","serving2"],"seed":-3,"slo":0.30000000000000004,"rate":3.333333333333333e+20,"steal":0,"stealthreshold":0,"fleet":"jetson:4,ideapad/mac8:4","stealscore":"latency"}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		sc, err := Decode(bytes.NewReader(data))
		if err != nil || sc.Validate() != nil {
			return
		}
		got, err := parseArgs(sc.Args())
		if err != nil {
			t.Fatalf("Args %q do not parse: %v", sc.Args(), err)
		}
		if len(sc.Experiments) == 0 {
			sc.Experiments = nil
		}
		if !reflect.DeepEqual(got, sc) {
			t.Fatalf("Args %q parsed back to\n %+v, want\n %+v", sc.Args(), got, sc)
		}
	})
}

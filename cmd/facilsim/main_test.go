package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runCLI runs facilsim in-process with args and returns its exit code
// and stderr.
func runCLI(t *testing.T, args ...string) (int, string) {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "stderr")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	saved := os.Stderr
	os.Stderr = f
	code := mainErr(args)
	os.Stderr = saved
	out, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return code, string(out)
}

// TestHelpGolden pins `facilsim -h` to the text captured before the
// scenario knobs moved into the run package's table: every flag name,
// type, default and usage string is unchanged.
func TestHelpGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "help.golden"))
	if err != nil {
		t.Fatal(err)
	}
	code, got := runCLI(t, "-h")
	if code != 0 {
		t.Errorf("-h exited %d, want 0", code)
	}
	if got != string(want) {
		t.Errorf("-h output drifted from testdata/help.golden:\n%s", got)
	}
}

// TestOutOfRangeKnobsFail: an out-of-range or non-finite knob fails the
// run with an error naming the knob, instead of running the default.
func TestOutOfRangeKnobsFail(t *testing.T) {
	for _, c := range []struct {
		args []string
		knob string
	}{
		{[]string{"-queuecap", "-5", "-stealthreshold", "-9", "serving2"}, "queuecap"},
		{[]string{"-stealthreshold", "-9", "cluster"}, "stealthreshold"},
		{[]string{"-rate", "NaN", "cluster"}, "rate"},
		{[]string{"-sync", "NaN", "cluster"}, "sync"},
		{[]string{"-slo", "Inf", "serving2"}, "slo"},
	} {
		code, stderr := runCLI(t, c.args...)
		if code != 1 || !strings.Contains(stderr, "bad "+c.knob) {
			t.Errorf("facilsim %q = exit %d, stderr %q; want exit 1 naming %s", c.args, code, stderr, c.knob)
		}
	}
}

// TestRecordRefusesBadScenario: -record of a scenario that cannot
// replay fails before running and leaves no file behind.
func TestRecordRefusesBadScenario(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sc.json")
	code, stderr := runCLI(t, "-slo", "NaN", "-record", path, "serving2")
	if code != 1 || !strings.Contains(stderr, "bad slo") {
		t.Errorf("-slo NaN -record = exit %d, stderr %q; want exit 1 naming slo", code, stderr)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("failed -record left %s behind (stat: %v)", path, err)
	}
}

// TestScenarioOverlay: explicit flags override a replayed scenario file
// field by field, and its other fields stand.
func TestScenarioOverlay(t *testing.T) {
	dir := t.TempDir()
	base, merged := filepath.Join(dir, "base.json"), filepath.Join(dir, "merged.json")
	if code, stderr := runCLI(t, "-record", base, "-queries", "30", "-slo", "5", "-steal=false", "-id", "nope"); code != 1 {
		t.Fatalf("recording run exit %d, stderr %q", code, stderr)
	}
	if code, stderr := runCLI(t, "-scenario", base, "-record", merged, "-queries", "60", "-rate", "2.5", "nope"); code != 1 {
		t.Fatalf("replay run exit %d, stderr %q", code, stderr)
	}
	got, err := os.ReadFile(merged)
	if err != nil {
		t.Fatal(err)
	}
	want := `{
  "experiments": [
    "nope"
  ],
  "queries": 60,
  "queuecap": -1,
  "slo": 5,
  "rate": 2.5,
  "steal": 0,
  "stealthreshold": -1
}
`
	if !bytes.Equal(got, []byte(want)) {
		t.Errorf("replayed scenario =\n%s\nwant\n%s", got, want)
	}
}

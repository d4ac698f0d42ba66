package daemoncfg

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
)

const goodConfig = `{
  "period": "500ms",
  "policy": "perf",
  "http": ":9090",
  "thresholds": {"llc_miss_rate": 0.05, "streaming_multiplier": 4},
  "groups": [
    {"name": "web", "cpus": "0-3", "baseline_ways": 4},
    {"name": "batch", "cpus": "4,6-7", "baseline_ways": 2}
  ]
}`

func TestParseGood(t *testing.T) {
	f, err := Parse([]byte(goodConfig))
	if err != nil {
		t.Fatal(err)
	}
	if f.ResctrlRoot == "" || f.MSRRoot == "" {
		t.Error("defaults not applied")
	}
	if f.PeriodDuration.Milliseconds() != 500 {
		t.Errorf("period %v", f.PeriodDuration)
	}
	if f.Policy != "max-performance" {
		t.Errorf("policy %q", f.Policy)
	}
	if len(f.Groups) != 2 {
		t.Fatalf("groups %d", len(f.Groups))
	}
	if got := f.Groups[1].Cores; len(got) != 3 || got[0] != 4 || got[2] != 7 {
		t.Errorf("batch cores %v", got)
	}
	cfg, err := f.ControllerConfig()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Policy != core.MaxPerformance || cfg.LLCMissRateThr != 0.05 || cfg.StreamingMult != 4 {
		t.Errorf("controller config %+v", cfg)
	}
	// Untouched thresholds keep paper defaults.
	if cfg.IPCImpThr != core.DefaultConfig().IPCImpThr {
		t.Error("unset threshold should keep the default")
	}
	targets := f.Targets()
	if len(targets) != 2 || targets[0].BaselineWays != 4 {
		t.Errorf("targets %+v", targets)
	}
	if cores := f.AllCores(); len(cores) != 7 {
		t.Errorf("AllCores %v", cores)
	}
}

func TestParseRejects(t *testing.T) {
	cases := map[string]string{
		"garbage":       `{`,
		"unknown field": `{"groups":[{"name":"a","cpus":"0","baseline_ways":1}],"bogus":1}`,
		"no groups":     `{"groups":[]}`,
		"unnamed group": `{"groups":[{"cpus":"0","baseline_ways":1}]}`,
		"dup group":     `{"groups":[{"name":"a","cpus":"0","baseline_ways":1},{"name":"a","cpus":"1","baseline_ways":1}]}`,
		"dup cpu":       `{"groups":[{"name":"a","cpus":"0-2","baseline_ways":1},{"name":"b","cpus":"2","baseline_ways":1}]}`,
		"bad cpus":      `{"groups":[{"name":"a","cpus":"x","baseline_ways":1}]}`,
		"no cpus":       `{"groups":[{"name":"a","cpus":"","baseline_ways":1}]}`,
		"zero baseline": `{"groups":[{"name":"a","cpus":"0","baseline_ways":0}]}`,
		"bad period":    `{"period":"soon","groups":[{"name":"a","cpus":"0","baseline_ways":1}]}`,
		"bad policy":    `{"policy":"chaotic","groups":[{"name":"a","cpus":"0","baseline_ways":1}]}`,
		"bad threshold": `{"thresholds":{"llc_miss_rate":2},"groups":[{"name":"a","cpus":"0","baseline_ways":1}]}`,
	}
	for name, raw := range cases {
		if _, err := Parse([]byte(raw)); err == nil {
			t.Errorf("%s: should be rejected", name)
		}
	}
}

func TestLoad(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "dcatd.json")
	if err := os.WriteFile(path, []byte(goodConfig), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("missing file should error")
	}
}

func TestGroupFlag(t *testing.T) {
	cases := []struct {
		spec    string
		want    Group
		wantErr string // substring; "" means the spec parses
	}{
		{spec: "web=0-3@4", want: Group{Name: "web", CPUs: "0-3", BaselineWays: 4, Cores: []int{0, 1, 2, 3}}},
		{spec: "batch=4,6-7@1", want: Group{Name: "batch", CPUs: "4,6-7", BaselineWays: 1, Cores: []int{4, 6, 7}}},
		{spec: "web0-3@4", wantErr: "want name=cpus@baseline"},
		{spec: "web=0-3", wantErr: "want name=cpus@baseline"},
		{spec: "web=x@4", wantErr: "bad cpu list entry"},
		{spec: "web=3-1@4", wantErr: "bad cpu range"},
		{spec: "web=@4", wantErr: `group "web" has no cpus`},
		{spec: "web=0-3@0", wantErr: `group "web": bad baseline "0"`},
		{spec: "web=0-3@many", wantErr: `group "web": bad baseline "many"`},
	}
	for _, tc := range cases {
		var g GroupFlag
		err := g.Set(tc.spec)
		if tc.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("Set(%q) = %v, want error containing %q", tc.spec, err, tc.wantErr)
			}
			if len(g) != 0 {
				t.Errorf("Set(%q) failed but kept %+v", tc.spec, g)
			}
			continue
		}
		if err != nil {
			t.Errorf("Set(%q): %v", tc.spec, err)
			continue
		}
		if len(g) != 1 || !reflect.DeepEqual(g[0], tc.want) {
			t.Errorf("Set(%q) = %+v, want [%+v]", tc.spec, g, tc.want)
		}
	}
}

// TestGroupFlagRepeats checks repeated flags accumulate in order and
// feed the same Targets/AllCores a configuration file does.
func TestGroupFlagRepeats(t *testing.T) {
	var g GroupFlag
	for _, spec := range []string{"web=0-3@4", "batch=4,6-7@2"} {
		if err := g.Set(spec); err != nil {
			t.Fatal(err)
		}
	}
	if g.String() != "2 groups" {
		t.Errorf("String() = %q", g.String())
	}
	fromFlags := File{Groups: g}
	fromFile, err := Parse([]byte(goodConfig))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fromFlags.Targets(), fromFile.Targets()) {
		t.Errorf("flag targets %+v differ from file targets %+v", fromFlags.Targets(), fromFile.Targets())
	}
	if !reflect.DeepEqual(fromFlags.AllCores(), fromFile.AllCores()) {
		t.Errorf("flag cores %v differ from file cores %v", fromFlags.AllCores(), fromFile.AllCores())
	}
}

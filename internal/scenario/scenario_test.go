package scenario

import (
	"strings"
	"testing"

	"etherm/internal/chipmodel"
	"etherm/internal/config"
)

func TestChipSpecValidate(t *testing.T) {
	cases := []struct {
		name string
		c    ChipSpec
		ok   bool
	}{
		{"zero", ChipSpec{}, true},
		{"preset", ChipSpec{Preset: "date16"}, true},
		{"bad preset", ChipSpec{Preset: "date17"}, false},
		{"bad material", ChipSpec{WireMaterial: "unobtainium"}, false},
		{"negative drive", ChipSpec{DriveVoltageV: -1}, false},
		{"elongation too big", ChipSpec{MeanElongation: 1.0}, false},
		{"bad pair", ChipSpec{ActivePairs: []int{6}}, false},
		{"good pair", ChipSpec{ActivePairs: []int{0, 5}}, true},
		{"bad emissivity", ChipSpec{Emissivity: ptr(1.5)}, false},
		{"zero emissivity ok", ChipSpec{Emissivity: ptr(0)}, true},
		{"negative htc", ChipSpec{HTC: ptr(-1)}, false},
	}
	for _, tc := range cases {
		if err := tc.c.Validate(); (err == nil) != tc.ok {
			t.Errorf("%s: got err=%v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

func TestChipSpecMaterialize(t *testing.T) {
	c := ChipSpec{
		Preset: "date16", DriveScale: 0.5, WireMaterial: "gold",
		MeanElongation: 0.25, AmbientK: 358, Emissivity: ptr(0),
	}
	spec, err := c.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	base := chipmodel.DATE16()
	if spec.DriveV != base.DriveV*0.5 {
		t.Errorf("drive scale not applied: %g", spec.DriveV)
	}
	if spec.WireMat == nil || spec.WireMat.Name() != "gold" {
		t.Error("wire material not applied")
	}
	if spec.MeanElong != 0.25 || spec.TAmbient != 358 {
		t.Error("elongation/ambient overrides not applied")
	}
	if spec.Emissivity != 0 {
		t.Error("explicit zero emissivity (no radiation) was dropped")
	}
}

func TestUQSpecValidate(t *testing.T) {
	bad := -0.1
	cases := []struct {
		name string
		u    UQSpec
		ok   bool
	}{
		{"zero is deterministic", UQSpec{}, true},
		{"mc needs samples", UQSpec{Method: MethodMonteCarlo}, false},
		{"mc ok", UQSpec{Method: MethodMonteCarlo, Samples: 10}, true},
		{"smolyak ok", UQSpec{Method: MethodSmolyak, Level: 1}, true},
		{"smolyak needs level", UQSpec{Method: MethodSmolyak}, false},
		{"smolyak rejects samples", UQSpec{Method: MethodSmolyak, Level: 1, Samples: 100}, false},
		{"unknown", UQSpec{Method: "galerkin"}, false},
		{"bad rho", UQSpec{Rho: &bad}, false},
	}
	for _, tc := range cases {
		if err := tc.u.Validate(); (err == nil) != tc.ok {
			t.Errorf("%s: got err=%v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

func TestBatchValidate(t *testing.T) {
	if err := (&Batch{}).Validate(); err == nil {
		t.Error("empty batch accepted")
	}
	b := &Batch{Scenarios: []Scenario{{Name: "a"}, {Name: "a"}}}
	if err := b.Validate(); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Errorf("duplicate names accepted: %v", err)
	}
	// A physically broken scenario must pass batch validation (it fails at
	// run time, isolated) as long as it is structurally sound.
	b = &Batch{Scenarios: []Scenario{{Name: "broken", Chip: ChipSpec{Preset: "nope"}}}}
	if err := b.Validate(); err != nil {
		t.Errorf("structural validation rejected a runtime-failure scenario: %v", err)
	}
	// Retired solver knobs, by contrast, ARE structural: they fail
	// submission instead of being silently ignored at solve time.
	b = &Batch{Scenarios: []Scenario{{Name: "x",
		Sim: config.SimConfig{Precision: "mixed"}}}}
	if err := b.Validate(); err == nil || !strings.Contains(err.Error(), "precision") {
		t.Errorf("removed precision=mixed accepted: %v", err)
	}
	b = &Batch{Scenarios: []Scenario{{Name: "x",
		Sim: config.SimConfig{Deflation: true}}}}
	if err := b.Validate(); err == nil || !strings.Contains(err.Error(), "deflation") {
		t.Errorf("removed deflation accepted: %v", err)
	}
}

func TestParseBatchRejectsUnknownFields(t *testing.T) {
	_, err := ParseBatch([]byte(`{"scenarios": [{"name": "x", "chipp": {}}]}`))
	if err == nil {
		t.Fatal("typo field accepted")
	}
}

func TestBatchJSONRoundTrip(t *testing.T) {
	b := Presets()
	data, err := b.MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseBatch(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Scenarios) != len(b.Scenarios) {
		t.Fatalf("round trip lost scenarios: %d vs %d", len(back.Scenarios), len(b.Scenarios))
	}
	for i := range back.Scenarios {
		if back.Scenarios[i].Name != b.Scenarios[i].Name {
			t.Errorf("scenario %d name changed in round trip", i)
		}
	}
}

func TestPresetsAreValidAndDiverse(t *testing.T) {
	b := Presets()
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(b.Scenarios) < 8 {
		t.Fatalf("bundled presets cover %d scenarios, need ≥ 8", len(b.Scenarios))
	}
	methods := map[string]bool{}
	for _, s := range b.Scenarios {
		if err := s.Validate(); err != nil {
			t.Errorf("preset %q invalid: %v", s.Name, err)
		}
		if s.Description == "" {
			t.Errorf("preset %q has no description", s.Name)
		}
		methods[s.UQ.EffectiveMethod()] = true
	}
	for _, m := range []string{MethodNone, MethodMonteCarlo, MethodSobol, MethodSmolyak} {
		if !methods[m] {
			t.Errorf("bundled presets exercise no %s scenario", m)
		}
	}
	// All presets share one demo mesh so a batch run demonstrates caching.
	for _, s := range b.Scenarios {
		spec, err := s.Chip.Materialize()
		if err != nil {
			t.Fatalf("preset %q: %v", s.Name, err)
		}
		if got, want := GeometryKey(spec), GeometryKey(mustSpec(t, b.Scenarios[0].Chip)); got != want {
			t.Errorf("preset %q has geometry key %s, want shared %s", s.Name, got, want)
		}
	}
}

func mustSpec(t *testing.T, c ChipSpec) chipmodel.Spec {
	t.Helper()
	spec, err := c.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

func TestSimDefaults(t *testing.T) {
	s := Scenario{Name: "x"}
	if err := s.Validate(); err != nil {
		t.Fatalf("zero sim config should validate via defaults: %v", err)
	}
	d := s.withSimDefaults()
	if d.Sim.EndTimeS != 50 || d.Sim.NumSteps != 50 {
		t.Errorf("defaults wrong: %+v", d.Sim)
	}
	// Explicit values survive.
	s.Sim = config.SimConfig{EndTimeS: 10, NumSteps: 4}
	if d := s.withSimDefaults(); d.Sim.EndTimeS != 10 || d.Sim.NumSteps != 4 {
		t.Error("explicit sim config overwritten")
	}
}

// TestScenarioSolverKnobs checks the solver performance knobs parse inside a
// batch file and materialize into core options per scenario.
func TestScenarioSolverKnobs(t *testing.T) {
	batch, err := ParseBatch([]byte(`{
		"scenarios": [{
			"name": "tuned",
			"sim": {
				"end_time_s": 10, "num_steps": 5,
				"precond": "ic0", "precond_omega": 0.95,
				"precond_refresh": 2, "solver_workers": 4
			}
		}]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	opt := batch.Scenarios[0].Sim.CoreOptions(false)
	if opt.PrecondOmega != 0.95 || opt.PrecondRefreshRatio != 2 || opt.Workers != 4 {
		t.Errorf("solver knobs lost in materialization: %+v", opt)
	}
	bad := Scenario{
		Name: "bad",
		Sim:  config.SimConfig{EndTimeS: 1, NumSteps: 1, Precond: "ilu"},
	}
	if err := bad.Validate(); err == nil {
		t.Error("invalid preconditioner should fail scenario validation")
	}
}

package scenario

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"ethmeasure/internal/catalog"
	"ethmeasure/internal/consensus"
	"ethmeasure/internal/geo"
)

func TestParseSpecRoundTrip(t *testing.T) {
	cases := []struct {
		in   string
		want Spec
	}{
		{"churn", Spec{Name: "churn"}},
		{"partition:a=EA+SEA,start=5m", Spec{
			Name:   "partition",
			Params: map[string]string{"a": "EA+SEA", "start": "5m"},
		}},
		{" withhold : pool = Ethermine , depth = 3 ", Spec{
			Name:   "withhold",
			Params: map[string]string{"pool": "Ethermine", "depth": "3"},
		}},
	}
	for _, c := range cases {
		got, err := Parse(c.in)
		if err != nil {
			t.Fatalf("Parse(%q): %v", c.in, err)
		}
		if got.Name != c.want.Name || !reflect.DeepEqual(got.Params, c.want.Params) {
			t.Errorf("Parse(%q) = %+v, want %+v", c.in, got, c.want)
		}
		// Canonical form reparses to the same spec.
		again, err := Parse(got.String())
		if err != nil {
			t.Fatalf("reparse %q: %v", got.String(), err)
		}
		if again.String() != got.String() {
			t.Errorf("round trip changed %q to %q", got.String(), again.String())
		}
	}
}

func TestParseSpecErrors(t *testing.T) {
	for _, in := range []string{"", ":a=b", "partition:novalue", "partition:a=EA,a=WE"} {
		if _, err := Parse(in); err == nil {
			t.Errorf("Parse(%q) accepted", in)
		}
	}
}

func TestSpecStringSortsParams(t *testing.T) {
	s := Spec{Name: "x", Params: map[string]string{"b": "2", "a": "1"}}
	if got, want := s.String(), "x:a=1,b=2"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

func TestRegistryRejectsUnknownScenario(t *testing.T) {
	if err := Validate(Spec{Name: "nope"}); err == nil {
		t.Fatal("unknown scenario accepted")
	}
}

func TestRegistryRejectsUnknownParam(t *testing.T) {
	spec := Spec{Name: ChurnName, Params: map[string]string{"intreval": "2m"}}
	err := Validate(spec)
	if err == nil {
		t.Fatal("misspelled parameter accepted")
	}
	if !strings.Contains(err.Error(), "intreval") {
		t.Errorf("error %v does not name the bad key", err)
	}
}

func TestRegistryRejectsBadValues(t *testing.T) {
	bad := []string{
		"churn:interval=banana",
		"churn:interval=-2m",
		"withhold",                      // pool required
		"withhold:pool=X,depth=1",       // depth < 2
		"partition",                     // region set a required
		"partition:a=EA,b=EA",           // region on both sides
		"partition:a=Mars",              // unknown region
		"relayoverlay:hubs=0",           // hubs < 1
		"bandwidth",                     // regions required
		"bandwidth:regions=EA,factor=0", // factor must be positive
		"eclipse:attackers=0",
		"churnburst:count=0",
	}
	for _, raw := range bad {
		spec, err := Parse(raw)
		if err != nil {
			t.Fatalf("Parse(%q): %v", raw, err)
		}
		if err := Validate(spec); err == nil {
			t.Errorf("Validate(%q) accepted", raw)
		}
	}
}

// A spec error names its scenario once, whether a typed getter or the
// factory's own check rejected the value, and a malformed value is
// reported as such even when the factory also complains about the
// default it fell back to.
func TestSpecErrorsNameTheScenarioOnce(t *testing.T) {
	cases := []struct{ spec, want string }{
		{"bandwidth:regions=EA,factor=banana", `scenario bandwidth: parameter factor: strconv.ParseFloat: parsing "banana": invalid syntax`},
		{"bandwidth:regions=EA,factr=2", "scenario bandwidth: unknown parameter(s) factr"},
		{"bandwidth:regions=EA,factor=0", "scenario bandwidth: factor must be positive"},
		{"bandwidth:regions=Mars", `scenario bandwidth: parameter regions: geo: unknown region "Mars"`},
		{"partition:a=Mars", `scenario partition: parameter a: geo: unknown region "Mars"`},
		{"churn:interval=banana", `scenario churn: parameter interval: time: invalid duration "banana"`},
	}
	for _, c := range cases {
		spec, err := Parse(c.spec)
		if err != nil {
			t.Fatalf("Parse(%q): %v", c.spec, err)
		}
		if _, err := Build([]Spec{spec}); err == nil || err.Error() != c.want {
			t.Errorf("Build(%q) err = %v, want %q", c.spec, err, c.want)
		}
	}
}

// Every float parameter of the scenario and protocol catalogs rejects
// NaN and ±Inf, naming the parameter and the value: each would
// otherwise pass the range checks.
func TestSpecFloatsMustBeFinite(t *testing.T) {
	pairs := []struct {
		prefix string // spec up to the float parameter
		param  string
	}{
		{"bandwidth:regions=EA+SEA+NA+WE+CE,", "factor"},
		{"relayoverlay:", "bw"},
		{"relayoverlay:", "procspeed"},
		{"eclipse:", "procspeed"},
		{"bitcoin:", "reward"},
		{"ghost-inclusive:", "decay"},
		{"ghost-inclusive:", "reward"},
	}
	validate := func(raw string) error {
		if strings.HasPrefix(raw, "bitcoin:") || strings.HasPrefix(raw, "ghost-inclusive:") {
			spec, err := consensus.Parse(raw)
			if err != nil {
				return err
			}
			return consensus.Validate(spec)
		}
		spec, err := Parse(raw)
		if err != nil {
			return err
		}
		return Validate(spec)
	}
	for _, p := range pairs {
		if err := validate(p.prefix + p.param + "=1"); err != nil {
			t.Errorf("%s%s=1 rejected: %v", p.prefix, p.param, err)
		}
		for _, v := range []string{"NaN", "Inf", "-Inf"} {
			raw := p.prefix + p.param + "=" + v
			err := validate(raw)
			if err == nil {
				t.Errorf("%s accepted", raw)
				continue
			}
			if want := "parameter " + p.param + `: "` + v + `" is not a finite number`; !strings.Contains(err.Error(), want) {
				t.Errorf("%s: err = %v, want it to contain %q", raw, err, want)
			}
		}
	}
}

func TestCatalogCoversAllPlugins(t *testing.T) {
	want := []string{
		BandwidthName, ChurnName, ChurnBurstName, EclipseName,
		PartitionName, RelayOverlayName, WithholdName,
	}
	got := cat.Names()
	if !reflect.DeepEqual(got, want) {
		t.Errorf("names = %v, want %v", got, want)
	}
	for _, reg := range Catalog() {
		if reg.Desc == "" || reg.Usage == "" {
			t.Errorf("scenario %s lacks catalog description/usage", reg.Name)
		}
		if !strings.HasPrefix(reg.Usage, reg.Name) {
			t.Errorf("scenario %s usage %q does not start with its name", reg.Name, reg.Usage)
		}
	}
}

func TestDefaultsInstantiate(t *testing.T) {
	// Every scenario with defaults for all parameters must instantiate
	// bare; the ones with required parameters are covered above.
	for _, raw := range []string{
		"churn", "relayoverlay", "eclipse", "churnburst",
		"partition:a=EA", "bandwidth:regions=EA", "withhold:pool=X",
	} {
		spec, err := Parse(raw)
		if err != nil {
			t.Fatalf("Parse(%q): %v", raw, err)
		}
		s, err := New(spec)
		if err != nil {
			t.Fatalf("New(%q): %v", raw, err)
		}
		if s.Name() != spec.Name {
			t.Errorf("instance name %q != spec name %q", s.Name(), spec.Name)
		}
	}
}

func TestParamsTypedGetters(t *testing.T) {
	p := catalog.NewParams("scenario", "t", map[string]string{
		"i": "7", "f": "0.5", "d": "90s", "r": "EA+NA", "one": "WE", "s": "x",
	})
	if got := p.Int("i", 0); got != 7 {
		t.Errorf("Int = %d", got)
	}
	if got := p.Float("f", 0); got != 0.5 {
		t.Errorf("Float = %v", got)
	}
	if got := p.Dur("d", 0); got != 90*time.Second {
		t.Errorf("Dur = %v", got)
	}
	if got := p.Regions("r"); !reflect.DeepEqual(got, []geo.Region{geo.EasternAsia, geo.NorthAmerica}) {
		t.Errorf("Regions = %v", got)
	}
	if got := p.Region("one", 0); got != geo.WesternEurope {
		t.Errorf("Region = %v", got)
	}
	if got := p.Str("s", ""); got != "x" {
		t.Errorf("Str = %q", got)
	}
	if got := p.Int("missing", 42); got != 42 {
		t.Errorf("default = %d", got)
	}
	if err := p.Err(); err != nil {
		t.Errorf("Err() = %v", err)
	}
}

func TestTagsPreserveOrder(t *testing.T) {
	specs := []Spec{
		{Name: "relayoverlay"},
		{Name: "partition", Params: map[string]string{"a": "EA"}},
	}
	got := Tags(specs)
	want := []string{"relayoverlay", "partition:a=EA"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Tags = %v, want %v", got, want)
	}
	if Tags(nil) != nil {
		t.Error("Tags(nil) != nil")
	}
}

package catalog

import (
	"reflect"
	"strings"
	"testing"
	"time"
)

// widget is a trivial product type for exercising the generic catalog.
type widget struct {
	name string
	size int
	wait time.Duration
}

func testCatalog(t *testing.T) *Catalog[*widget] {
	t.Helper()
	c := New[*widget]("widgets", "widget", "plain")
	c.Register(Registration[*widget]{
		Name: "plain",
		Desc: "a plain widget",
		New: func(p *Params) (*widget, error) {
			return &widget{name: "plain", size: p.Int("size", 1)}, nil
		},
	})
	c.Register(Registration[*widget]{
		Name: "timed",
		Desc: "a widget with a delay",
		New: func(p *Params) (*widget, error) {
			return &widget{name: "timed", wait: p.Dur("wait", time.Second)}, nil
		},
	})
	return c
}

// parseCases are well-formed spec texts and what Parse reads from them.
var parseCases = []struct {
	in   string
	want Spec
}{
	{"plain", Spec{Name: "plain"}},
	{"timed:wait=5m", Spec{Name: "timed", Params: map[string]string{"wait": "5m"}}},
	{" plain : size = 3 ", Spec{Name: "plain", Params: map[string]string{"size": "3"}}},
	{"plain:b=2,a=1", Spec{Name: "plain", Params: map[string]string{"a": "1", "b": "2"}}},
}

// parseErrorCases are malformed spec texts and a fragment of the error
// Parse must return for each.
var parseErrorCases = []struct {
	in   string
	frag string
}{
	{"", "empty widget name"},
	{":size=3", "empty widget name"},
	{"plain:size", "want key=val"},
	{"plain:=3", "want key=val"},
	{"plain:size=1,size=2", "duplicate parameter"},
}

func TestParseAndCanonical(t *testing.T) {
	c := testCatalog(t)
	for _, tc := range parseCases {
		got, err := c.Parse(tc.in)
		if err != nil {
			t.Fatalf("Parse(%q): %v", tc.in, err)
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("Parse(%q) = %+v, want %+v", tc.in, got, tc.want)
		}
	}
	// Canonical form sorts params and round-trips through Parse.
	spec := Spec{Name: "plain", Params: map[string]string{"b": "2", "a": "1"}}
	if got, want := spec.String(), "plain:a=1,b=2"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
	back, err := c.Parse(spec.String())
	if err != nil || !reflect.DeepEqual(back, spec) {
		t.Errorf("round trip = %+v, %v", back, err)
	}
}

func TestParseErrors(t *testing.T) {
	c := testCatalog(t)
	for _, tc := range parseErrorCases {
		_, err := c.Parse(tc.in)
		if err == nil || !strings.Contains(err.Error(), tc.frag) {
			t.Errorf("Parse(%q) err = %v, want fragment %q", tc.in, err, tc.frag)
		}
		if err != nil && !strings.HasPrefix(err.Error(), "widgets: ") {
			t.Errorf("Parse(%q) err %q not prefixed by catalog name", tc.in, err)
		}
	}
}

// FuzzCatalogParse checks that Parse never panics and that every spec
// it accepts renders, through Spec.String, to text that parses back to
// an equal spec (so the canonical form is also a fixed point).
func FuzzCatalogParse(f *testing.F) {
	for _, tc := range parseCases {
		f.Add(tc.in)
	}
	for _, tc := range parseErrorCases {
		f.Add(tc.in)
	}
	c := New[*widget]("widgets", "widget", "plain")
	f.Fuzz(func(t *testing.T, in string) {
		spec, err := c.Parse(in)
		if err != nil {
			return
		}
		text := spec.String()
		back, err := c.Parse(text)
		if err != nil {
			t.Fatalf("Parse(%q) = %+v, but its String %q does not parse: %v", in, spec, text, err)
		}
		if !reflect.DeepEqual(back, spec) {
			t.Fatalf("Parse(%q) = %+v, but its String %q parses to %+v", in, spec, text, back)
		}
		if again := back.String(); again != text {
			t.Fatalf("String is not a fixed point: %q -> %q", text, again)
		}
	})
}

func TestDefaultNameSubstitution(t *testing.T) {
	c := testCatalog(t)
	// Empty name builds and canonicalizes to the default entry.
	w, err := c.Build(Spec{})
	if err != nil || w.name != "plain" {
		t.Fatalf("Build(empty) = %+v, %v", w, err)
	}
	if got := c.Canonical(Spec{}); got != "plain" {
		t.Errorf("Canonical(empty) = %q", got)
	}
	// A catalog without a default rejects empty names on Build.
	nd := New[*widget]("nodef", "thing", "")
	if _, err := nd.Build(Spec{}); err == nil {
		t.Error("Build(empty) on defaultless catalog succeeded")
	}
}

func TestBuildParamsAndUnknownKeys(t *testing.T) {
	c := testCatalog(t)
	w, err := c.Build(Spec{Name: "plain", Params: map[string]string{"size": "7"}})
	if err != nil || w.size != 7 {
		t.Fatalf("Build = %+v, %v", w, err)
	}
	if _, err := c.Build(Spec{Name: "plain", Params: map[string]string{"bogus": "1"}}); err == nil ||
		!strings.Contains(err.Error(), "unknown parameter(s) bogus") {
		t.Errorf("unknown key err = %v", err)
	}
	if _, err := c.Build(Spec{Name: "plain", Params: map[string]string{"size": "x"}}); err == nil ||
		!strings.Contains(err.Error(), "parameter size") {
		t.Errorf("bad int err = %v", err)
	}
	if _, err := c.Build(Spec{Name: "nosuch"}); err == nil ||
		!strings.Contains(err.Error(), `unknown widget "nosuch"`) {
		t.Errorf("unknown name err = %v", err)
	}
	if err := c.Validate(Spec{Name: "timed", Params: map[string]string{"wait": "90s"}}); err != nil {
		t.Errorf("Validate = %v", err)
	}
}

// A factory that returns its parameters' error itself gets it back
// from Build unwrapped: the error names the entry once.
func TestBuildNamesTheEntryOnce(t *testing.T) {
	c := New[*widget]("widgets", "widget", "")
	c.Register(Registration[*widget]{
		Name: "checked",
		New: func(p *Params) (*widget, error) {
			w := &widget{size: p.Int("size", 1)}
			if err := p.Err(); err != nil {
				return nil, err
			}
			return w, nil
		},
	})
	_, err := c.Build(Spec{Name: "checked", Params: map[string]string{"size": "x"}})
	if want := `widget checked: parameter size: strconv.Atoi: parsing "x": invalid syntax`; err == nil || err.Error() != want {
		t.Errorf("Build err = %v, want %q", err, want)
	}
}

func TestNamesAndRegistrations(t *testing.T) {
	c := testCatalog(t)
	if got, want := c.Names(), []string{"plain", "timed"}; !reflect.DeepEqual(got, want) {
		t.Errorf("Names = %v", got)
	}
	regs := c.Registrations()
	if len(regs) != 2 || regs[0].Name != "plain" || regs[1].Name != "timed" {
		t.Errorf("Registrations = %+v", regs)
	}
}

func TestRegisterPanics(t *testing.T) {
	c := testCatalog(t)
	mustPanic := func(name string, r Registration[*widget]) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: Register did not panic", name)
			}
		}()
		c.Register(r)
	}
	mustPanic("no factory", Registration[*widget]{Name: "x"})
	mustPanic("no name", Registration[*widget]{New: func(*Params) (*widget, error) { return nil, nil }})
	mustPanic("duplicate", Registration[*widget]{Name: "plain", New: func(*Params) (*widget, error) { return nil, nil }})
}

package xpath

import "testing"

func TestValueString(t *testing.T) {
	if got := StringValue("abc").String(); got != `"abc"` {
		t.Errorf("string value = %s", got)
	}
	if got := NumberValue(4.5).String(); got != "4.5" {
		t.Errorf("number value = %s", got)
	}
	if got := NumberValue(-0.25).String(); got != "-0.25" {
		t.Errorf("negative = %s", got)
	}
	if StringVal.String() != "string" || NumberVal.String() != "numerical" {
		t.Error("kind names must match the paper's Table I")
	}
}

func TestAxisString(t *testing.T) {
	if Child.String() != "/" || Descendant.String() != "//" {
		t.Error("axis spellings wrong")
	}
}

func TestStepMatchesLabel(t *testing.T) {
	cases := []struct {
		test, label string
		want        bool
	}{
		{"a", "a", true},
		{"a", "b", false},
		{"*", "anything", true},
		{"*", "@id", false},
		{"@id", "@id", true},
		{"@id", "id", false},
		{"@*", "@id", true},
		{"@*", "id", false},
	}
	for _, tc := range cases {
		st := Step{Axis: Child, Test: tc.test}
		if got := st.MatchesLabel(tc.label); got != tc.want {
			t.Errorf("Step{%s}.MatchesLabel(%s) = %v, want %v", tc.test, tc.label, got, tc.want)
		}
	}
}

func TestPathLastStepPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("LastStep of empty path should panic")
		}
	}()
	Path{}.LastStep()
}

func TestPathStringEdgeCases(t *testing.T) {
	if got := (Path{}).String(); got != "/" {
		t.Errorf("empty absolute path = %q", got)
	}
	if got := (Path{Relative: true}).String(); got != "." {
		t.Errorf("empty relative path = %q", got)
	}
	// Relative path with a leading descendant axis renders with .//
	p := MustParse("a")
	p.Steps[0].Axis = Descendant
	if got := p.String(); got != ".//a" {
		t.Errorf("leading descendant relative = %q", got)
	}
}

func TestCloneIsDeep(t *testing.T) {
	p := MustParse(`/Security[Yield>4.5]/Name`)
	c := p.Clone()
	c.Steps[0].Preds[0].Lit = NumberValue(99)
	c.Steps[1].Test = "Changed"
	if p.Steps[0].Preds[0].Lit.Num != 4.5 || p.Steps[1].Test != "Name" {
		t.Error("Clone shares structure with original")
	}
}

func TestEqual(t *testing.T) {
	a := MustParse("/a/b[c=1]")
	b := MustParse("/a/b[c=1]")
	c := MustParse("/a/b[c=2]")
	if !a.Equal(b) {
		t.Error("identical paths not equal")
	}
	if a.Equal(c) {
		t.Error("different predicates considered equal")
	}
	rel := MustParse("a/b")
	if a.Equal(rel) {
		t.Error("absolute equal to relative")
	}
}

func TestEqualLinear(t *testing.T) {
	a := MustParse("/a/b[c=1]")
	for _, tc := range []struct {
		q    string
		want bool
	}{
		{"/a/b[c=2]", true}, // predicates ignored
		{"/a/b", true},
		{"a/b", false},
		{"/a//b", false},
		{"/a/*", false},
		{"/a/b/c", false},
	} {
		if got := a.EqualLinear(MustParse(tc.q)); got != tc.want {
			t.Errorf("EqualLinear(%s, %s) = %v, want %v", a, tc.q, got, tc.want)
		}
	}
}

func TestPredString(t *testing.T) {
	p := MustParse(`/a[b]`)
	if got := p.Steps[0].Preds[0].String(); got != "[b]" {
		t.Errorf("existence pred = %q", got)
	}
	p2 := MustParse(`/a[b!="x"]`)
	if got := p2.Steps[0].Preds[0].String(); got != `[b!="x"]` {
		t.Errorf("comparison pred = %q", got)
	}
}

func TestIsWildcardAndIsAttribute(t *testing.T) {
	for _, tc := range []struct {
		test           string
		wildcard, attr bool
	}{
		{"*", true, false},
		{"@*", true, true},
		{"name", false, false},
		{"@name", false, true},
	} {
		st := Step{Test: tc.test}
		if st.IsWildcard() != tc.wildcard || st.IsAttribute() != tc.attr {
			t.Errorf("Step{%s}: wildcard=%v attr=%v", tc.test, st.IsWildcard(), st.IsAttribute())
		}
	}
}

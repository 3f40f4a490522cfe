package metrics

import (
	"strings"
	"testing"
)

func writeText(t *testing.T, r *Registry) string {
	t.Helper()
	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

func TestRegistryWriteText(t *testing.T) {
	r := &Registry{}
	var x Int
	r.Int(&x, Counter, "x_total", "Things counted.")
	x.Add(3)
	v := r.IntVec(Gauge, "x_by_key", "Things by key.", "key")
	v.With("b").Add(2)
	v.With("a").Add(1)
	r.Func(Gauge, "x_empty", "Never emits.", "", func(func(string, float64)) {})
	r.Func(Gauge, "x_ratio", "A fraction.", "", func(emit func(string, float64)) { emit("", 0.25) })
	r.Func(Summary, "x_ms", "Quantiles.", "quantile", func(emit func(string, float64)) {
		emit("0.5", 40)
		emit("0.99", 1e6)
	})
	want := `# HELP x_total Things counted.
# TYPE x_total counter
x_total 3
# HELP x_by_key Things by key.
# TYPE x_by_key gauge
x_by_key{key="a"} 1
x_by_key{key="b"} 2
# HELP x_ratio A fraction.
# TYPE x_ratio gauge
x_ratio 0.25
# HELP x_ms Quantiles.
# TYPE x_ms summary
x_ms{quantile="0.5"} 40
x_ms{quantile="0.99"} 1000000
`
	if got := writeText(t, r); got != want {
		t.Fatalf("WriteText =\n%s\nwant\n%s", got, want)
	}
}

// TestRegistryLabelEscaping: label values escape exactly backslash, double
// quote and newline; everything else, control characters and non-ASCII
// included, passes through as raw UTF-8.
func TestRegistryLabelEscaping(t *testing.T) {
	r := &Registry{}
	v := r.IntVec(Gauge, "g", "Escaping.", "l")
	for _, lv := range []string{`a"b\c`, "x\ny", "t\tu", "nb\u00a0sp", "w\x01"} {
		v.With(lv).Add(1)
	}
	text := writeText(t, r)
	for _, want := range []string{
		`g{l="a\"b\\c"} 1`,
		`g{l="x\ny"} 1`,
		"g{l=\"t\tu\"} 1",
		"g{l=\"nb\u00a0sp\"} 1",
		"g{l=\"w\x01\"} 1",
	} {
		if !strings.Contains(text, want+"\n") {
			t.Errorf("missing %q in\n%s", want, text)
		}
	}
	for _, bad := range []string{`\t`, `\u00a0`, `\x01`} {
		if strings.Contains(text, bad) {
			t.Errorf("Go-style escape %s in\n%s", bad, text)
		}
	}
}

func TestRegistryDuplicateNamePanics(t *testing.T) {
	r := &Registry{}
	r.Int(&Int{}, Counter, "dup_total", "First.")
	defer func() {
		if recover() == nil {
			t.Fatal("second declaration of dup_total did not panic")
		}
	}()
	r.Func(Gauge, "dup_total", "Second.", "", func(func(string, float64)) {})
}

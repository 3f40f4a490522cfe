package metrics

import (
	"bufio"
	"io"
	"maps"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Kind is a metric family's Prometheus TYPE.
type Kind string

const (
	Counter Kind = "counter"
	Gauge   Kind = "gauge"
	Summary Kind = "summary"
)

// Registry is the set of metric families one /metrics page renders, each
// declared exactly once with its name, type and help text. Families render
// in declaration order; declaring a name twice panics. The zero value is
// an empty registry.
type Registry struct {
	mu   sync.Mutex
	fams []family
}

// family is one declared metric family: exactly one of v, vec and collect
// supplies its samples. label is the family's label key, or "" for an
// unlabeled family.
type family struct {
	name, help, label string
	kind              Kind
	v                 *Int
	vec               *IntVec
	collect           func(emit func(labelValue string, v float64))
}

func (r *Registry) declare(f family) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := range r.fams {
		if r.fams[i].name == f.name {
			panic("metrics: family " + f.name + " declared twice")
		}
	}
	r.fams = append(r.fams, f)
}

// Int is an integer sample: a counter or a gauge, depending on how it was
// declared.
type Int struct{ atomic.Int64 }

// Int declares v as an unlabeled counter or gauge.
func (r *Registry) Int(v *Int, kind Kind, name, help string) {
	r.declare(family{name: name, help: help, kind: kind, v: v})
}

// IntVec is a counter or gauge family with one label: one Int per label
// value, created on first use and rendered in label-value order.
type IntVec struct {
	mu sync.Mutex
	m  map[string]*Int
}

// With returns (creating if needed) the Int for one label value.
func (v *IntVec) With(labelValue string) *Int {
	v.mu.Lock()
	defer v.mu.Unlock()
	i, ok := v.m[labelValue]
	if !ok {
		if v.m == nil {
			v.m = make(map[string]*Int)
		}
		i = &Int{}
		v.m[labelValue] = i
	}
	return i
}

// IntVec declares a counter or gauge family labeled by label.
func (r *Registry) IntVec(kind Kind, name, help, label string) *IntVec {
	v := &IntVec{}
	r.declare(family{name: name, help: help, kind: kind, label: label, vec: v})
	return v
}

// Func declares a family whose samples are read at scrape time from state
// owned elsewhere: collect calls emit once per sample. The label value is
// ignored when label is "". A scrape where collect emits nothing leaves
// the family off the page.
func (r *Registry) Func(kind Kind, name, help, label string, collect func(emit func(labelValue string, v float64))) {
	r.declare(family{name: name, help: help, kind: kind, label: label, collect: collect})
}

// labelEscaper escapes a label value as the text exposition format
// requires: backslash, double quote and newline, nothing else.
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// WriteText renders every family in the Prometheus text exposition format
// (version 0.0.4): HELP, TYPE, then the samples; a family with no samples
// is omitted entirely. Values print in plain decimal, integers without a
// fraction.
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.Lock()
	fams := r.fams // declare only appends, so this prefix never changes
	r.mu.Unlock()
	bw := bufio.NewWriter(w)
	for _, f := range fams {
		header := "# HELP " + f.name + " " + f.help + "\n# TYPE " + f.name + " " + string(f.kind) + "\n"
		emit := func(labelValue string, v float64) {
			bw.WriteString(header + f.name)
			header = ""
			if f.label != "" {
				bw.WriteString("{" + f.label + `="` + labelEscaper.Replace(labelValue) + `"}`)
			}
			bw.WriteString(" " + strconv.FormatFloat(v, 'f', -1, 64) + "\n")
		}
		switch {
		case f.v != nil:
			emit("", float64(f.v.Load()))
		case f.vec != nil:
			f.vec.mu.Lock()
			m := maps.Clone(f.vec.m)
			f.vec.mu.Unlock()
			for _, k := range slices.Sorted(maps.Keys(m)) {
				emit(k, float64(m[k].Load()))
			}
		default:
			f.collect(emit)
		}
	}
	return bw.Flush()
}

package stats

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// SchemaVersion identifies the layout of Snapshot and of the run
// artifacts built from it (cmd/ropexp -stats-out). Bump it whenever the
// JSON/CSV structure changes incompatibly; golden tests and downstream
// diff tooling key on it. See docs/METRICS.md for the schema.
const SchemaVersion = 1

// Field is one named scalar inside a metric's snapshot value. Fields
// appear in a fixed, kind-defined order so that serialized snapshots
// are byte-stable across runs.
type Field struct {
	// Name identifies the scalar within its metric (e.g. "value",
	// "count", "sum", "bucket[0,8)").
	Name string `json:"name"`
	// Value is the scalar. Integer-valued metrics are widened to
	// float64; simulation counts stay far below 2^53, so the widening
	// is lossless in practice.
	Value float64 `json:"value"`
}

// Value is the snapshot of one registered metric: its full dotted path,
// its kind ("counter", "mean", "ratio", "histogram", "gauge"), and the
// kind's fields in fixed order.
type Value struct {
	// Path is the metric's full dotted path (e.g.
	// "memctrl.refreshes_issued").
	Path string `json:"path"`
	// Kind names the metric type; it determines the Fields layout.
	Kind string `json:"kind"`
	// Fields carries the metric's scalars in kind-defined order:
	// counter/gauge: value; mean: count, sum, mean; ratio: num, den,
	// value; histogram: count, sum, max, then one field per bucket in
	// ascending bound order.
	Fields []Field `json:"fields"`
}

// Metric is a statistic that can be registered in a Registry. The
// package's primitives (*Counter, *AtomicCounter, *Mean, *Ratio,
// *Histogram) and GaugeFunc implement it.
type Metric interface {
	// metricValue reports the metric's kind and current fields.
	metricValue() (kind string, fields []Field)
}

func (c *Counter) metricValue() (string, []Field) {
	return "counter", []Field{{Name: "value", Value: float64(c.n)}}
}

func (c *AtomicCounter) metricValue() (string, []Field) {
	return "counter", []Field{{Name: "value", Value: float64(c.n.Load())}}
}

func (m *Mean) metricValue() (string, []Field) {
	return "mean", []Field{
		{Name: "count", Value: float64(m.n)},
		{Name: "sum", Value: m.sum},
		{Name: "mean", Value: m.Value()},
	}
}

func (r *Ratio) metricValue() (string, []Field) {
	return "ratio", []Field{
		{Name: "num", Value: float64(r.Num)},
		{Name: "den", Value: float64(r.Den)},
		{Name: "value", Value: r.Value(0)},
	}
}

func (h *Histogram) metricValue() (string, []Field) {
	fields := []Field{
		{Name: "count", Value: float64(h.n)},
		{Name: "sum", Value: float64(h.sum)},
		{Name: "max", Value: float64(h.max)},
	}
	lo := "-inf"
	for i, b := range h.bounds {
		fields = append(fields, Field{
			Name:  fmt.Sprintf("bucket[%s,%d)", lo, b),
			Value: float64(h.counts[i]),
		})
		lo = strconv.FormatInt(b, 10)
	}
	fields = append(fields, Field{
		Name:  fmt.Sprintf("bucket[%s,+inf)", lo),
		Value: float64(h.counts[len(h.bounds)]),
	})
	return "histogram", fields
}

// GaugeFunc is a derived metric: a function evaluated at snapshot time.
// Components register gauges for values computed from other state (IPC,
// hit rates, energy components) so they appear in artifacts alongside
// raw counters.
type GaugeFunc func() float64

func (g GaugeFunc) metricValue() (string, []Field) {
	return "gauge", []Field{{Name: "value", Value: g()}}
}

// Registry is a hierarchical namespace of metrics, keyed by dotted
// paths such as "memctrl.refreshes_issued". One registry belongs to one
// simulation run: sim.Run builds a fresh registry per run and every
// component registers its statistics into it, so parallel runner jobs
// never share metric state (enforced by a race-detector test).
//
// A Registry value scoped with Sub shares its parent's underlying
// namespace: registrations through the sub-registry land in the same
// snapshot, under the sub-registry's prefix. All methods are nil-safe
// no-ops, so components may register unconditionally and still be
// usable standalone (their metric fields work without any registry).
//
// Like the rest of this package, Registry is not safe for concurrent
// use; see the package comment for the ownership invariant.
type Registry struct {
	prefix string
	root   *registryRoot
}

// registryRoot is the namespace shared by a registry and all its Sub
// views.
type registryRoot struct {
	metrics map[string]Metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{root: &registryRoot{metrics: map[string]Metric{}}}
}

// join combines the registry prefix with a relative name.
func (r *Registry) join(name string) string {
	if r.prefix == "" {
		return name
	}
	return r.prefix + "." + name
}

// validPath reports whether path is a well-formed dotted metric path:
// dot-separated segments of lowercase letters, digits and underscores,
// each starting with a letter.
func validPath(path string) bool {
	if path == "" {
		return false
	}
	for _, seg := range strings.Split(path, ".") {
		if seg == "" {
			return false
		}
		for i, c := range seg {
			switch {
			case c >= 'a' && c <= 'z':
			case c == '_' && i > 0:
			case c >= '0' && c <= '9' && i > 0:
			default:
				return false
			}
		}
	}
	return true
}

// Sub returns a view of the registry scoped under prefix: metrics
// registered through the view get "prefix." prepended to their paths.
// Sub of a nil registry is nil.
func (r *Registry) Sub(prefix string) *Registry {
	if r == nil {
		return nil
	}
	if !validPath(prefix) {
		panic(fmt.Sprintf("stats: invalid registry prefix %q", prefix))
	}
	return &Registry{prefix: r.join(prefix), root: r.root}
}

// Register adds a metric under the given relative name. It panics on a
// malformed name or a duplicate path — both are programming errors in
// the component wiring, not runtime conditions. Registering on a nil
// registry is a no-op.
func (r *Registry) Register(name string, m Metric) {
	if r == nil {
		return
	}
	if m == nil {
		panic("stats: Register with nil metric")
	}
	path := r.join(name)
	if !validPath(path) {
		panic(fmt.Sprintf("stats: invalid metric path %q", path))
	}
	if _, dup := r.root.metrics[path]; dup {
		panic(fmt.Sprintf("stats: duplicate metric path %q", path))
	}
	r.root.metrics[path] = m
}

// Gauge registers a derived metric evaluated at snapshot time.
func (r *Registry) Gauge(name string, fn func() float64) {
	if r == nil {
		return
	}
	r.Register(name, GaugeFunc(fn))
}

// Len reports the number of registered metrics (0 for nil).
func (r *Registry) Len() int {
	if r == nil {
		return 0
	}
	return len(r.root.metrics)
}

// Snapshot captures every registered metric's current value, sorted by
// path. The result is fully deterministic for a deterministic
// simulation: same run, same bytes when serialized. A nil registry
// yields an empty (but schema-stamped) snapshot.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{Schema: SchemaVersion}
	if r == nil {
		return s
	}
	paths := make([]string, 0, len(r.root.metrics))
	for p := range r.root.metrics {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	s.Metrics = make([]Value, 0, len(paths))
	for _, p := range paths {
		kind, fields := r.root.metrics[p].metricValue()
		s.Metrics = append(s.Metrics, Value{Path: p, Kind: kind, Fields: fields})
	}
	return s
}

// Snapshot is a point-in-time capture of a registry: the schema version
// plus every metric value in ascending path order. Snapshots are plain
// data — comparable with reflect.DeepEqual and safe to retain after the
// run that produced them.
type Snapshot struct {
	// Schema is the SchemaVersion the snapshot was taken under.
	Schema int `json:"schema"`
	// Metrics lists every registered metric, sorted by Path.
	Metrics []Value `json:"metrics"`
}

// Get returns the value at the given full path, if present.
func (s Snapshot) Get(path string) (Value, bool) {
	i := sort.Search(len(s.Metrics), func(i int) bool { return s.Metrics[i].Path >= path })
	if i < len(s.Metrics) && s.Metrics[i].Path == path {
		return s.Metrics[i], true
	}
	return Value{}, false
}

// Field returns the named field of the metric at path, if present.
func (s Snapshot) Field(path, name string) (float64, bool) {
	v, ok := s.Get(path)
	if !ok {
		return 0, false
	}
	for _, f := range v.Fields {
		if f.Name == name {
			return f.Value, true
		}
	}
	return 0, false
}

// Paths lists every metric path in the snapshot, in order.
func (s Snapshot) Paths() []string {
	out := make([]string, len(s.Metrics))
	for i, v := range s.Metrics {
		out[i] = v.Path
	}
	return out
}

// WriteJSON serializes the snapshot as indented JSON. Key order and
// float formatting are deterministic, so identical runs produce
// byte-identical output (golden tests rely on this).
func (s Snapshot) WriteJSON(w io.Writer) error {
	b, err := s.AppendJSON(nil, 0)
	if err != nil {
		return err
	}
	_, err = w.Write(append(b, '\n'))
	return err
}

// AppendJSON appends the snapshot's JSON to b, as a value nested depth
// levels deep in an indented document: its inner lines are indented by
// depth+1 levels of two spaces. The bytes are those encoding/json's
// Encoder writes for s with SetIndent("", "  ") (less the trailing
// newline), written directly: the snapshot is a fixed tree of strings
// and floats, and writing it without reflection and a second
// indentation pass is what keeps artifact rendering cheap.
// TestAppendJSONMatchesEncoder holds the two to the same bytes. Like
// encoding/json, it fails on a NaN or infinite value.
func (s Snapshot) AppendJSON(b []byte, depth int) ([]byte, error) {
	w := jsonWriter{b: b, depth: depth}
	w.open('{')
	w.key("schema")
	w.b = strconv.AppendInt(w.b, int64(s.Schema), 10)
	w.key("metrics")
	if s.Metrics == nil {
		w.b = append(w.b, "null"...)
	} else {
		w.open('[')
		for _, v := range s.Metrics {
			w.elem()
			w.open('{')
			w.key("path")
			w.str(v.Path)
			w.key("kind")
			w.str(v.Kind)
			w.key("fields")
			if v.Fields == nil {
				w.b = append(w.b, "null"...)
			} else {
				w.open('[')
				for _, f := range v.Fields {
					w.elem()
					w.open('{')
					w.key("name")
					w.str(f.Name)
					w.key("value")
					w.float(f.Value)
					w.close('}')
				}
				w.close(']')
			}
			w.close('}')
		}
		w.close(']')
	}
	w.close('}')
	return w.b, w.err
}

// jsonWriter appends JSON in encoding/json's indented layout: a
// non-empty object or array puts each element on its own line, indented
// one level deeper than the line holding its brackets; an empty one is
// "{}" or "[]"; a key is followed by ": ".
type jsonWriter struct {
	b     []byte
	depth int
	empty bool // the innermost open container has no element yet
	err   error
}

func (w *jsonWriter) open(c byte) {
	w.b = append(w.b, c)
	w.depth++
	w.empty = true
}

func (w *jsonWriter) close(c byte) {
	w.depth--
	if !w.empty {
		w.newline()
	}
	w.b = append(w.b, c)
	w.empty = false
}

// elem starts the next element of the innermost container.
func (w *jsonWriter) elem() {
	if !w.empty {
		w.b = append(w.b, ',')
	}
	w.newline()
	w.empty = false
}

func (w *jsonWriter) newline() {
	w.b = append(w.b, '\n')
	for i := 0; i < w.depth; i++ {
		w.b = append(w.b, "  "...)
	}
}

func (w *jsonWriter) key(k string) {
	w.elem()
	w.str(k)
	w.b = append(w.b, ": "...)
}

// str appends s quoted. Metric paths, kinds and field names are plain
// ASCII; any other string takes encoding/json's own escaping.
func (w *jsonWriter) str(s string) {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			w.b = append(w.b, q...)
			return
		}
	}
	w.b = append(w.b, '"')
	w.b = append(w.b, s...)
	w.b = append(w.b, '"')
}

// float appends f as encoding/json formats a float64: ES6 number
// formatting, exponent form below 1e-6 and from 1e21 on.
func (w *jsonWriter) float(f float64) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		if w.err == nil {
			_, w.err = json.Marshal(f) // the encoder's own error
		}
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	w.b = strconv.AppendFloat(w.b, f, format, -1, 64)
	if n := len(w.b); format == 'e' && w.b[n-4] == 'e' && w.b[n-3] == '-' && w.b[n-2] == '0' {
		// strconv writes e-07; encoding/json writes e-7.
		w.b[n-2] = w.b[n-1]
		w.b = w.b[:n-1]
	}
}

// WriteCSV serializes the snapshot as "path,kind,field,value" rows
// (with a header), one row per field, in path then field order. Floats
// use the shortest round-trip representation.
func (s Snapshot) WriteCSV(w io.Writer) error {
	if _, err := io.WriteString(w, "path,kind,field,value\n"); err != nil {
		return err
	}
	for _, v := range s.Metrics {
		for _, f := range v.Fields {
			name := f.Name
			if strings.ContainsAny(name, ",\"") {
				name = `"` + strings.ReplaceAll(name, `"`, `""`) + `"`
			}
			row := v.Path + "," + v.Kind + "," + name + "," +
				strconv.FormatFloat(f.Value, 'g', -1, 64) + "\n"
			if _, err := io.WriteString(w, row); err != nil {
				return err
			}
		}
	}
	return nil
}

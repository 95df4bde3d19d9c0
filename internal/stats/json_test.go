package stats

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// oddStrings and oddFloats are the inputs where a hand-written JSON
// encoder most easily departs from encoding/json: escaping (HTML
// characters, control bytes, invalid UTF-8, U+2028) and the float
// formatting cutoffs.
var (
	oddStrings = []string{"", "memctrl.read_latency", "bucket[0,8)", `q"uote`, `back\slash`,
		"<tag>&amp;", "tab\tnew\nline\r", "\x01\x1f\x7f", "é✓", "bad\xffutf8", "line\u2028sep\u2029"}
	oddFloats = []float64{0, math.Copysign(0, -1), 1, -1, 0.1, 1.0 / 3, 123456789, 1e20, 1e21, -1e21,
		1e-6, 9.99e-7, -1e-7, 5e-324, math.MaxFloat64, 1 << 53, 0.000123}
)

// encoderJSON is the reference: what encoding/json's Encoder writes for
// v at the indentation WriteJSON uses.
func encoderJSON(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// randomSnapshot builds a snapshot from the odd inputs, with nil and
// empty metric and field lists mixed in.
func randomSnapshot(rng *rand.Rand) Snapshot {
	pick := func() string { return oddStrings[rng.Intn(len(oddStrings))] }
	s := Snapshot{Schema: rng.Intn(3)}
	if rng.Intn(8) == 0 {
		return s // nil Metrics
	}
	s.Metrics = []Value{}
	for i := rng.Intn(5); i > 0; i-- {
		v := Value{Path: pick(), Kind: pick()}
		if rng.Intn(6) != 0 {
			v.Fields = []Field{}
			for j := rng.Intn(4); j > 0; j-- {
				f := oddFloats[rng.Intn(len(oddFloats))]
				if rng.Intn(3) == 0 {
					f = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(60)-30))
				}
				v.Fields = append(v.Fields, Field{Name: pick(), Value: f})
			}
		}
		s.Metrics = append(s.Metrics, v)
	}
	return s
}

// TestAppendJSONMatchesEncoder holds WriteJSON and AppendJSON to
// encoding/json's bytes, at the top level and nested (depth 2 inside a
// one-key object inside an array).
func TestAppendJSONMatchesEncoder(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 2000; i++ {
		s := randomSnapshot(rng)
		var got bytes.Buffer
		if err := s.WriteJSON(&got); err != nil {
			t.Fatal(err)
		}
		if want := encoderJSON(t, s); !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("snapshot %+v:\nWriteJSON:\n%s\nencoding/json:\n%s", s, got.Bytes(), want)
		}
		nested, err := s.AppendJSON([]byte("[\n  {\n    \"s\": "), 2)
		if err != nil {
			t.Fatal(err)
		}
		nested = append(nested, "\n  }\n]\n"...)
		if want := encoderJSON(t, []map[string]Snapshot{{"s": s}}); !bytes.Equal(nested, want) {
			t.Fatalf("nested snapshot %+v:\nAppendJSON:\n%s\nencoding/json:\n%s", s, nested, want)
		}
	}
}

// TestWriteJSONRejectsNonFinite keeps encoding/json's refusal of NaN
// and infinities, and writes nothing in that case.
func TestWriteJSONRejectsNonFinite(t *testing.T) {
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		s := Snapshot{Metrics: []Value{{Path: "p", Kind: "gauge", Fields: []Field{{Name: "value", Value: f}}}}}
		var buf strings.Builder
		err := s.WriteJSON(&buf)
		if _, want := json.Marshal(s); err == nil || want == nil || err.Error() != want.Error() {
			t.Errorf("%v: WriteJSON error %v, encoding/json's %v", f, err, want)
		}
		if buf.Len() != 0 {
			t.Errorf("%v: WriteJSON wrote %q before failing", f, buf.String())
		}
	}
}

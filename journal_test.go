package ropsim

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"ropsim/internal/workload"
)

// TestConfigHashCoversEveryField is the run store's oracle: a field
// that can change a run's result but not its ConfigHash would let the
// store (or -resume) serve one config's result for another. Every field
// of Config, and of its nested CPU config, is set to a second valid
// value in turn, and the hash must change. Only the robustness knobs
// that cannot change a result are exempt.
func TestConfigHashCoversEveryField(t *testing.T) {
	exempt := map[string]bool{"Check": true, "RunTimeout": true, "LivelockEvents": true}
	second := map[string]any{
		"Benches":      []string{"lbm"},
		"Traces":       []workload.Stream{workload.NewSliceStream(nil)},
		"Mode":         ModeROP,
		"ROPGate":      GateAlways,
		"ROPPredictor": PredictorVLDP,
		"FGR":          Refresh2x,
		"Standard":     "DDR5-4800",
		"DensityGb":    16,
	}
	base := Default("libquantum")
	baseHash := ConfigHash(base)

	var vary func(prefix string, v reflect.Value)
	vary = func(prefix string, v reflect.Value) {
		for i := 0; i < v.NumField(); i++ {
			name := prefix + v.Type().Field(i).Name
			f := v.Field(i)
			if exempt[name] {
				continue
			}
			if f.Kind() == reflect.Struct {
				vary(name+".", f)
				continue
			}
			old := reflect.New(f.Type()).Elem()
			old.Set(f)
			switch val, ok := second[v.Type().Field(i).Name]; {
			case ok:
				f.Set(reflect.ValueOf(val))
			case f.Kind() == reflect.Bool:
				f.SetBool(!f.Bool())
			case f.CanInt() && f.Int() == 0:
				f.SetInt(1)
			case f.CanInt():
				f.SetInt(2 * f.Int())
			default:
				t.Fatalf("Config.%s (%s): no second value; add one to this test", name, f.Type())
			}
			if err := base.Validate(); err != nil {
				t.Errorf("Config.%s: second value is invalid: %v", name, err)
			}
			if ConfigHash(base) == baseHash {
				t.Errorf("Config.%s changed but ConfigHash did not", name)
			}
			f.Set(old)
		}
	}
	vary("", reflect.ValueOf(&base).Elem())
	if ConfigHash(base) != baseHash {
		t.Fatal("the config was not restored after varying its fields")
	}
}

// TestRunStoreSingleflight checks the zero-value Journal as a run
// store: concurrent submissions of one hash share a single run, a
// stored hash is served afterwards, and a failed run is not stored.
func TestRunStoreSingleflight(t *testing.T) {
	var j Journal
	var runs atomic.Int64
	release := make(chan struct{})
	want := &Result{ElapsedBus: 42}
	run := func() (*Result, error) {
		runs.Add(1)
		<-release
		return want, nil
	}

	const callers = 8
	var wg sync.WaitGroup
	var served atomic.Int64
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, s, err := j.do("h", "label", run)
			if err != nil || res != want {
				t.Errorf("do = %v, %v; want the shared result", res, err)
			}
			if s {
				served.Add(1)
			}
		}()
	}
	close(release)
	wg.Wait()
	if n := runs.Load(); n != 1 {
		t.Errorf("%d concurrent submissions ran %d times, want once", callers, n)
	}
	if n := served.Load(); n != callers-1 {
		t.Errorf("served = %d, want %d", n, callers-1)
	}
	if _, s, _ := j.do("h", "again", run); !s || runs.Load() != 1 {
		t.Error("a stored hash was simulated again")
	}
	if j.Len() != 1 || j.Hits() != callers {
		t.Errorf("Len, Hits = %d, %d; want 1, %d", j.Len(), j.Hits(), callers)
	}

	boom := errors.New("boom")
	var failing atomic.Int64
	fail := func() (*Result, error) { failing.Add(1); return nil, boom }
	for i := 0; i < 2; i++ {
		if _, _, err := j.do("bad", "bad", fail); !errors.Is(err, boom) {
			t.Fatalf("do = %v, want the run's error", err)
		}
	}
	if failing.Load() != 2 || j.Len() != 1 {
		t.Errorf("a failed run was stored (runs %d, entries %d)", failing.Load(), j.Len())
	}

	// A panicking run must not leave its hash in flight: the next
	// submission would wait on it forever.
	func() {
		defer func() { _ = recover() }()
		j.do("panics", "panics", func() (*Result, error) { panic("run panicked") })
	}()
	if res, s, err := j.do("panics", "panics", run); err != nil || s || res != want {
		t.Errorf("after a panicking run: do = %v, %v, %v; want a fresh run", res, s, err)
	}
}

// TestAloneRunsOneLabelPerConfig pins the alone-IPC runs of the
// weighted-speedup figures: through one campaign store, every label
// must name a single config, and every distinct config must reach the
// executor once, however many mixes and figures share it.
func TestAloneRunsOneLabelPerConfig(t *testing.T) {
	o := QuickOptions()
	o.Mixes = []Mix{
		{Name: "WLa", Members: []string{"lbm", "libquantum", "bzip2", "gobmk"}},
		{Name: "WLb", Members: []string{"lbm", "gcc", "bzip2", "astar"}},
	}
	o.Jobs = 2
	o.Journal = &Journal{}
	o.Artifact = NewArtifact()
	var mu sync.Mutex
	labelHash := map[string]string{}
	calls := map[string]int{}
	o.Remote = func(ctx context.Context, label string, cfg Config) (*Result, error) {
		h := ConfigHash(cfg)
		mu.Lock()
		if prev, ok := labelHash[label]; ok && prev != h {
			t.Errorf("label %s names two configs", label)
		}
		labelHash[label] = h
		calls[h]++
		mu.Unlock()
		return RunCtx(ctx, cfg)
	}
	if _, _, err := Fig10and11(o); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := Fig12to14(o); err != nil {
		t.Fatal(err)
	}
	for h, n := range calls {
		if n != 1 {
			t.Errorf("config %s… reached the executor %d times", h[:12], n)
		}
	}
	var buf strings.Builder
	if err := o.Artifact.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	for _, label := range []string{"alone/lbm", "alone/lbm/1MB", "alone/lbm/4MB", "alone/lbm/8MB"} {
		if !strings.Contains(buf.String(), `"label": "`+label+`"`) {
			t.Errorf("artifact has no run labelled %s", label)
		}
	}
}

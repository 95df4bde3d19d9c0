package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"testing"
)

func TestBlockClassString(t *testing.T) {
	cases := []struct {
		c    BlockClass
		want string
	}{
		{0, "none"},
		{BlockChan, "chan"},
		{BlockIO, "io"},
		{BlockLock, "lock"},
		{BlockCond, "cond"},
		{BlockChan | BlockIO, "chan|io"},
		{BlockChan | BlockIO | BlockLock | BlockCond, "chan|io|lock|cond"},
	}
	for _, tc := range cases {
		if got := tc.c.String(); got != tc.want {
			t.Errorf("BlockClass(%d).String() = %q, want %q", tc.c, got, tc.want)
		}
	}
}

func TestBlockClassMayBlock(t *testing.T) {
	c := BlockChan | BlockIO
	if !c.MayBlock(BlockChan) || !c.MayBlock(BlockIO|BlockLock) {
		t.Errorf("%v should intersect chan and io|lock", c)
	}
	if c.MayBlock(BlockLock | BlockCond) {
		t.Errorf("%v should not intersect lock|cond", c)
	}
}

func TestFuncFactZero(t *testing.T) {
	if !(FuncFact{}).zero() {
		t.Error("empty fact should be zero")
	}
	for _, f := range []FuncFact{
		{Blocks: BlockIO},
		{Spawns: true},
		{Signals: true},
		{WireResults: 1},
	} {
		if f.zero() {
			t.Errorf("%+v should not be zero", f)
		}
	}
}

// TestStdlibSeeds spot-checks the seed table entries the analyzers
// lean on hardest; a missing or misclassified seed silently disables a
// whole class of findings.
func TestStdlibSeeds(t *testing.T) {
	cases := []struct {
		name string
		want FuncFact
	}{
		{"(*sync.WaitGroup).Wait", FuncFact{Blocks: BlockChan}},
		{"(*sync.WaitGroup).Done", FuncFact{Signals: true}},
		{"(*sync.Mutex).Lock", FuncFact{Blocks: BlockLock}},
		{"(*sync.Cond).Wait", FuncFact{Blocks: BlockCond}},
		{"(io.Reader).Read", FuncFact{Blocks: BlockIO}},
		{"(io.Writer).Write", FuncFact{Blocks: BlockIO}},
		{"time.Sleep", FuncFact{Blocks: BlockIO}},
		{"(encoding/binary.littleEndian).Uint32", FuncFact{WireResults: 1}},
		{"(encoding/binary.ByteOrder).Uint32", FuncFact{WireResults: 1}},
	}
	for _, tc := range cases {
		got, ok := stdlibFacts[tc.name]
		if !ok {
			t.Errorf("stdlibFacts missing seed for %s", tc.name)
			continue
		}
		if got != tc.want {
			t.Errorf("stdlibFacts[%s] = %+v, want %+v", tc.name, got, tc.want)
		}
	}
}

// TestFuncFactLookup exercises the computed-table path and the nil
// safety contract: every FactSet method must tolerate a nil receiver,
// because fixture loads may run analyzers without facts attached.
func TestFuncFactLookup(t *testing.T) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", "package p\nfunc F() {}\n", 0)
	if err != nil {
		t.Fatal(err)
	}
	info := &types.Info{Defs: map[*ast.Ident]types.Object{}}
	pkg, err := (&types.Config{}).Check("p", fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatal(err)
	}
	fn, _ := pkg.Scope().Lookup("F").(*types.Func)
	if fn == nil {
		t.Fatal("no *types.Func for F")
	}

	var nilSet *FactSet
	if got := nilSet.FuncFact(fn); got != (FuncFact{}) {
		t.Errorf("nil FactSet lookup = %+v, want zero", got)
	}
	if nilSet.Package("p") != nil {
		t.Error("nil FactSet Package should be nil")
	}

	s := NewFactSet()
	if got := s.FuncFact(fn); got != (FuncFact{}) {
		t.Errorf("unknown func lookup = %+v, want zero", got)
	}
	s.pkgs["p"] = &PackageFacts{
		Schema: FactSchema,
		Path:   "p",
		Funcs:  map[string]FuncFact{"p.F": {Spawns: true}},
	}
	if got := s.FuncFact(fn); !got.Spawns {
		t.Errorf("computed lookup = %+v, want Spawns", got)
	}
	if got := s.FuncFact(nil); got != (FuncFact{}) {
		t.Errorf("nil func lookup = %+v, want zero", got)
	}
}

func TestEncodeDecodeFactsRoundTrip(t *testing.T) {
	pf := &PackageFacts{
		Schema: FactSchema,
		Path:   "ropsim/internal/x",
		Funcs: map[string]FuncFact{
			"x.A": {Blocks: BlockChan | BlockIO, Spawns: true},
			"x.B": {Signals: true, WireResults: 0b101},
		},
	}
	data, err := encodeFacts(pf)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeFacts(data, "ropsim/internal/x")
	if err != nil {
		t.Fatal(err)
	}
	if got.Schema != FactSchema || got.Path != pf.Path {
		t.Errorf("header mismatch: %+v", got)
	}
	if len(got.Funcs) != 2 || got.Funcs["x.A"] != pf.Funcs["x.A"] || got.Funcs["x.B"] != pf.Funcs["x.B"] {
		t.Errorf("funcs mismatch: %+v", got.Funcs)
	}
	if got.taintedFields == nil {
		t.Error("decode must initialize taintedFields")
	}

	if _, err := decodeFacts(data, "ropsim/internal/y"); err == nil {
		t.Error("path mismatch should be rejected")
	}
	if _, err := decodeFacts([]byte(`{"schema":99,"path":"ropsim/internal/x"}`), "ropsim/internal/x"); err == nil {
		t.Error("schema mismatch should be rejected")
	}
	if _, err := decodeFacts([]byte("not json"), "ropsim/internal/x"); err == nil {
		t.Error("garbage should be rejected")
	}
}

func TestFactCacheKey(t *testing.T) {
	u := &Unit{Path: "ropsim/internal/x"}
	src := [][]byte{[]byte("package x\n")}
	dep := [][]byte{[]byte(`{"schema":1}`)}
	k1 := factCacheKey(u, dep, src)
	if k2 := factCacheKey(u, dep, src); k2 != k1 {
		t.Error("key must be deterministic")
	}
	if k := factCacheKey(u, dep, [][]byte{[]byte("package x // edited\n")}); k == k1 {
		t.Error("source change must change the key")
	}
	if k := factCacheKey(u, [][]byte{[]byte(`{"schema":1,"x":1}`)}, src); k == k1 {
		t.Error("dependency fact change must change the key")
	}
	if k := factCacheKey(&Unit{Path: "ropsim/internal/y"}, dep, src); k == k1 {
		t.Error("import path must change the key")
	}
}

// TestFactCacheRoundTrip drives loadOrComputeFacts through a real
// cache directory: the first call populates it, the second must be
// served from the file (observable because we tamper with the cached
// entry and see the tampered facts come back).
func TestFactCacheRoundTrip(t *testing.T) {
	dir := t.TempDir()
	u := &Unit{Path: "ropsim/internal/x"} // no files: computes empty facts

	s1 := NewFactSet()
	data, err := s1.loadOrComputeFacts(u, dir, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	entries, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil || len(entries) != 1 {
		t.Fatalf("want exactly one cache entry, got %v (err %v)", entries, err)
	}

	// Tamper: inject a fact into the cached file. A second load with
	// identical inputs must return the tampered content, proving the
	// cache was consulted rather than recomputed.
	tampered := []byte(`{"schema":1,"path":"ropsim/internal/x","funcs":{"x.T":{"spawns":true}}}`)
	if err := os.WriteFile(entries[0], tampered, 0o644); err != nil {
		t.Fatal(err)
	}
	s2 := NewFactSet()
	data2, err := s2.loadOrComputeFacts(u, dir, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(data2) != string(tampered) {
		t.Errorf("second load bypassed the cache:\n%s", data2)
	}
	if !s2.pkgs["ropsim/internal/x"].Funcs["x.T"].Spawns {
		t.Error("cached facts not installed into the set")
	}

	// A corrupt entry must fall back to recomputation, not fail.
	if err := os.WriteFile(entries[0], []byte("corrupt"), 0o644); err != nil {
		t.Fatal(err)
	}
	s3 := NewFactSet()
	data3, err := s3.loadOrComputeFacts(u, dir, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(data3) != string(data) {
		t.Errorf("recomputed facts differ from original:\n%s\nvs\n%s", data3, data)
	}
}

package stableheap

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"
)

func testCfg() Config {
	return Config{
		PageSize:      256,
		StableWords:   8 * 1024,
		VolatileWords: 4 * 1024,
	}
}

// TestConfigFieldBudget is a ratchet: lower the bound when a field goes,
// never raise it.
func TestConfigFieldBudget(t *testing.T) {
	const budget = 18
	if n := reflect.TypeOf(Config{}).NumField(); n > budget {
		t.Fatalf("Config has %d fields, budget %d. The simplicity rule: a new option is justified only "+
			"when two callers that exist at the parent commit, not counting tests and examples, need "+
			"different values; with one value in use it is a constant, and a value the code can work "+
			"out from its inputs is not an option.", n, budget)
	}
}

// TestCommandBudget is the same ratchet for cmd/: four tools, by name. A
// scripted scenario belongs in one of them, in examples/ or in a test.
func TestCommandBudget(t *testing.T) {
	want := []string{"shbench", "shchaos", "shrecover", "shstat"}
	entries, err := os.ReadDir("cmd")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, e := range entries {
		got = append(got, e.Name())
	}
	if !slices.Equal(got, want) {
		t.Fatalf("cmd/ holds %v, want exactly %v", got, want)
	}
}

// TestEntryPointBudget is the same ratchet for the ways a heap or a
// cluster comes to exist: the exported top-level functions of internal/core
// and internal/shard that return a *core.Heap or a *shard.Cluster. One open
// each decides from the bytes it finds whether to format, recover or
// rebuild from the log; a second constructor is a second restart policy.
func TestEntryPointBudget(t *testing.T) {
	const budget = 2
	var names []string
	for dir, results := range map[string][]string{
		"internal/core":  {"*Heap"},
		"internal/shard": {"*Cluster", "*core.Heap"},
	} {
		pkgs, err := parser.ParseDir(token.NewFileSet(), dir, func(fi fs.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, pkg := range pkgs {
			for _, f := range pkg.Files {
				for _, d := range f.Decls {
					fn, ok := d.(*ast.FuncDecl)
					if !ok || fn.Recv != nil || !fn.Name.IsExported() || fn.Type.Results == nil {
						continue
					}
					for _, r := range fn.Type.Results.List {
						if slices.Contains(results, types.ExprString(r.Type)) {
							names = append(names, dir+"."+fn.Name.Name)
							break
						}
					}
				}
			}
		}
	}
	if len(names) > budget {
		slices.Sort(names)
		t.Fatalf("%d entry points %v, budget %d: a restart is one Open over the same backings", len(names), names, budget)
	}
}

// TestRootDeclaresNoMethods is the ratchet on the root package itself: it
// re-exports the internal packages' types and declares no method and no
// struct, so a forwarding layer over core.Heap, core.Tx or shard.Cluster
// cannot grow back.
func TestRootDeclaresNoMethods(t *testing.T) {
	pkgs, err := parser.ParseDir(token.NewFileSet(), ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, pkg := range pkgs {
		for name, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch d := n.(type) {
				case *ast.FuncDecl:
					if d.Recv != nil {
						t.Errorf("%s: method %s: the root package re-exports, it does not wrap", name, d.Name.Name)
					}
				case *ast.TypeSpec:
					if _, ok := d.Type.(*ast.StructType); ok {
						t.Errorf("%s: struct type %s: the root package re-exports, it does not wrap", name, d.Name.Name)
					}
				}
				return true
			})
		}
	}
}

func TestQuickstartFlow(t *testing.T) {
	h := Open(testCfg())
	tx := h.Begin()
	obj, err := tx.Alloc(1, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.SetData(obj, 0, 42); err != nil {
		t.Fatal(err)
	}
	if err := tx.SetRoot(0, obj); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	disk, log := h.Crash()
	h2, err := Recover(testCfg(), disk, log)
	if err != nil {
		t.Fatal(err)
	}
	tx2 := h2.Begin()
	defer tx2.Abort()
	obj2, err := tx2.Root(0)
	if err != nil || obj2 == nil {
		t.Fatalf("root lost: %v", err)
	}
	if v, _ := tx2.Data(obj2, 0); v != 42 {
		t.Fatalf("value = %d, want 42", v)
	}
}

func TestDataBytesRoundTrip(t *testing.T) {
	h := Open(testCfg())
	tx := h.Begin()
	msg := []byte("atomic incremental garbage collection")
	words := (len(msg) + 7) / 8
	obj, _ := tx.Alloc(2, 0, words)
	if err := tx.SetDataBytes(obj, 0, msg); err != nil {
		t.Fatal(err)
	}
	got, err := tx.DataBytes(obj, 0, len(msg))
	if err != nil || !bytes.Equal(got, msg) {
		t.Fatalf("round trip: %q vs %q (%v)", got, msg, err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestShape(t *testing.T) {
	h := Open(testCfg())
	tx := h.Begin()
	defer tx.Abort()
	obj, _ := tx.Alloc(7, 2, 3)
	typeID, np, nd, err := tx.Shape(obj)
	if err != nil || typeID != 7 || np != 2 || nd != 3 {
		t.Fatalf("shape = %d %d %d (%v)", typeID, np, nd, err)
	}
}

func TestStatsPopulate(t *testing.T) {
	h := Open(testCfg())
	tx := h.Begin()
	a, _ := tx.Alloc(1, 1, 1)
	b, _ := tx.Alloc(1, 0, 1)
	tx.SetPtr(a, 0, b)
	tx.SetRoot(0, a)
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	h.CollectVolatile()
	h.CollectStable()
	m := h.Metrics()
	if c := m.Counter("tx_committed_total"); c != 2 { // bootstrap + ours
		t.Fatalf("committed = %d", c)
	}
	if tracked, moved := m.Counter("track_objects_total"), m.Counter("vgc_moved_objects_total"); tracked != 2 || moved != 2 {
		t.Fatalf("tracking stats: tracked %d, moved %d", tracked, moved)
	}
	if n, copied := m.Counter("gc_collections_total"), m.Counter("gc_copied_objects_total"); n != 1 || copied == 0 {
		t.Fatalf("gc stats: %d collections, %d objects copied", n, copied)
	}
	if ls := h.Log().Device().Stats(); ls.Forces == 0 || ls.BytesAppended == 0 {
		t.Fatalf("log stats: %+v", ls)
	}
}

func TestConflictSurface(t *testing.T) {
	h := Open(testCfg())
	t1 := h.Begin()
	obj, _ := t1.Alloc(1, 0, 1)
	t1.SetRoot(0, obj)
	if err := t1.Commit(); err != nil {
		t.Fatal(err)
	}
	ta := h.Begin()
	ra, _ := ta.Root(0)
	ta.SetData(ra, 0, 1)
	tb := h.Begin()
	rb, _ := tb.Root(0)
	if _, err := tb.Data(rb, 0); err != ErrConflict {
		t.Fatalf("want ErrConflict, got %v", err)
	}
	tb.Abort()
	if err := ta.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestCloseThenRecover(t *testing.T) {
	h := Open(testCfg())
	tx := h.Begin()
	obj, _ := tx.Alloc(1, 0, 1)
	tx.SetData(obj, 0, 9)
	tx.SetRoot(3, obj)
	tx.Commit()
	h.Close()
	disk, log := h.Devices()
	h2, err := Recover(testCfg(), disk, log)
	if err != nil {
		t.Fatal(err)
	}
	tx2 := h2.Begin()
	defer tx2.Abort()
	r, _ := tx2.Root(3)
	if v, _ := tx2.Data(r, 0); v != 9 {
		t.Fatal("value lost across clean shutdown")
	}
}

func TestIncrementalCollectionViaPublicAPI(t *testing.T) {
	h := Open(testCfg())
	tx := h.Begin()
	var prev *Ref
	for i := 0; i < 30; i++ {
		n, err := tx.Alloc(1, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		tx.SetData(n, 0, uint64(i))
		tx.SetPtr(n, 0, prev)
		prev = n
	}
	tx.SetRoot(0, prev)
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	h.CollectVolatile()
	h.StartStableCollection()
	steps := 0
	for h.StepStable() {
		steps++
		if steps > 10000 {
			t.Fatal("collection did not finish")
		}
	}
	tx2 := h.Begin()
	defer tx2.Abort()
	n, _ := tx2.Root(0)
	count := 0
	for n != nil {
		count++
		n, _ = tx2.Ptr(n, 0)
	}
	if count != 30 {
		t.Fatalf("walked %d nodes, want 30", count)
	}
}

func TestPublicAddDataAndPrepare(t *testing.T) {
	h := Open(testCfg())
	tx := h.Begin()
	c, err := tx.Alloc(1, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.SetData(c, 0, 100); err != nil {
		t.Fatal(err)
	}
	if err := tx.SetRoot(0, c); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	h.CollectVolatile()

	// A prepared delta survives a crash in-doubt and resolves to commit.
	tx2 := h.Begin()
	c2, _ := tx2.Root(0)
	if err := tx2.AddData(c2, 0, 11); err != nil {
		t.Fatal(err)
	}
	if err := tx2.Prepare(); err != nil {
		t.Fatal(err)
	}
	id := tx2.ID()
	disk, logDev := h.Crash()
	h2, err := Recover(testCfg(), disk, logDev)
	if err != nil {
		t.Fatal(err)
	}
	ids := h2.InDoubt()
	if len(ids) != 1 || ids[0] != id {
		t.Fatalf("in-doubt = %v", ids)
	}
	if err := h2.ResolveCommit(id); err != nil {
		t.Fatal(err)
	}
	tx3 := h2.Begin()
	defer tx3.Abort()
	c3, _ := tx3.Root(0)
	if v, _ := tx3.Data(c3, 0); v != 111 {
		t.Fatalf("value = %d, want 111", v)
	}
}

func TestPublicMediaRecovery(t *testing.T) {
	h := Open(testCfg())
	tx := h.Begin()
	obj, _ := tx.Alloc(1, 0, 1)
	tx.SetData(obj, 0, 64)
	tx.SetRoot(5, obj)
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	_, logDev := h.Crash() // the disk is "destroyed"
	h2, err := RecoverFromLog(testCfg(), logDev)
	if err != nil {
		t.Fatal(err)
	}
	tx2 := h2.Begin()
	defer tx2.Abort()
	r, _ := tx2.Root(5)
	if v, _ := tx2.Data(r, 0); v != 64 {
		t.Fatalf("value after media recovery = %d", v)
	}
}

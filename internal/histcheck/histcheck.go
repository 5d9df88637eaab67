// Package histcheck records transaction operation histories and checks
// them for conflict-serializability. It is the machine-checked correctness
// anchor for the heap's parallel transaction path: a Recorder hooks into
// Begin/read/write/Commit/Abort, logging per-variable read provenance
// (which writer's version each read observed) and per-variable write
// order; the Checker builds the direct serialization graph (DSG) over the
// committed transactions — read-dependency (wr), write-dependency (ww)
// and anti-dependency (rw) edges — and any cycle proves the execution was
// not conflict-serializable.
//
// Soundness of the recording rests on the heap's strict two-phase locking:
// an object's write lock is held until the transaction ends, so for any
// one variable the recorder's mutex-ordered appends agree with the actual
// memory order of conflicting accesses. Variables are identified by a
// stable id allocated on first touch and rebased when the collector moves
// an object (Relocate), so a history spans GC flips transparently.
package histcheck

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"stableheap/internal/word"
)

// Kind labels one recorded operation.
type Kind uint8

// Operation kinds.
const (
	OpBegin Kind = iota
	OpRead
	OpWrite
	OpCommit
	OpAbort
)

func (k Kind) String() string {
	switch k {
	case OpBegin:
		return "begin"
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	case OpCommit:
		return "commit"
	default:
		return "abort"
	}
}

// Op is one recorded operation. For reads, (FromTx, FromSeq) names the
// version observed: FromTx 0 means the initial (pre-history) value. For
// writes, Seq is the writer's 1-based write counter on that variable.
type Op struct {
	Tx      word.TxID
	Kind    Kind
	Var     uint32
	FromTx  word.TxID
	FromSeq int
	Seq     int
}

// String formats the op compactly: r3(v7)=v7@2:1 is "tx 3 read var 7,
// observing tx 2's first write".
func (o Op) String() string {
	switch o.Kind {
	case OpRead:
		from := "init"
		if o.FromTx != 0 {
			from = fmt.Sprintf("%d:%d", o.FromTx, o.FromSeq)
		}
		return fmt.Sprintf("r%d(v%d)=%s", o.Tx, o.Var, from)
	case OpWrite:
		return fmt.Sprintf("w%d(v%d):%d", o.Tx, o.Var, o.Seq)
	default:
		return fmt.Sprintf("%s%d", o.Kind, o.Tx)
	}
}

// History is an ordered operation trace.
type History struct {
	Ops []Op
}

// String renders the history one op per line.
func (h History) String() string {
	var b strings.Builder
	for i, op := range h.Ops {
		fmt.Fprintf(&b, "%4d  %s\n", i, op.String())
	}
	return b.String()
}

// version names one installed value of a variable.
type version struct {
	tx  word.TxID
	seq int
}

type writeKey struct {
	tx word.TxID
	v  uint32
}

// Recorder accumulates a History from concurrent hooks. All methods are
// safe for concurrent use; per-variable consistency is inherited from the
// caller's locking discipline (see the package comment).
type Recorder struct {
	mu       sync.Mutex
	ops      []Op
	varOf    map[word.Addr]uint32
	nextVar  uint32
	versions map[uint32][]version // version stack per var; top = current
	writeSeq map[writeKey]int
	written  map[word.TxID][]uint32 // vars each tx has written (for aborts)
}

// NewRecorder creates an empty recorder.
func NewRecorder() *Recorder {
	return &Recorder{
		varOf:    make(map[word.Addr]uint32),
		versions: make(map[uint32][]version),
		writeSeq: make(map[writeKey]int),
		written:  make(map[word.TxID][]uint32),
	}
}

// varFor returns the stable variable id for addr, allocating on first use.
// The recorder mutex is held.
func (r *Recorder) varFor(addr word.Addr) uint32 {
	if v, ok := r.varOf[addr]; ok {
		return v
	}
	r.nextVar++
	r.varOf[addr] = r.nextVar
	return r.nextVar
}

// Begin records a transaction start.
func (r *Recorder) Begin(tx word.TxID) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ops = append(r.ops, Op{Tx: tx, Kind: OpBegin})
}

// Read records tx observing the current version of the variable at addr.
func (r *Recorder) Read(tx word.TxID, addr word.Addr) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.readLocked(tx, r.varFor(addr))
}

func (r *Recorder) readLocked(tx word.TxID, v uint32) {
	op := Op{Tx: tx, Kind: OpRead, Var: v}
	if stack := r.versions[v]; len(stack) > 0 {
		top := stack[len(stack)-1]
		op.FromTx, op.FromSeq = top.tx, top.seq
	}
	r.ops = append(r.ops, op)
}

// Write records tx installing a new version of the variable at addr.
func (r *Recorder) Write(tx word.TxID, addr word.Addr) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.writeLocked(tx, r.varFor(addr))
}

func (r *Recorder) writeLocked(tx word.TxID, v uint32) {
	k := writeKey{tx, v}
	r.writeSeq[k]++
	seq := r.writeSeq[k]
	r.versions[v] = append(r.versions[v], version{tx: tx, seq: seq})
	if seq == 1 {
		r.written[tx] = append(r.written[tx], v)
	}
	r.ops = append(r.ops, Op{Tx: tx, Kind: OpWrite, Var: v, Seq: seq})
}

// ReadWrite records an atomic read-modify-write (e.g. a logged add): the
// read of the current version and the install of the new one under one
// recorder critical section.
func (r *Recorder) ReadWrite(tx word.TxID, addr word.Addr) {
	r.mu.Lock()
	defer r.mu.Unlock()
	v := r.varFor(addr)
	r.readLocked(tx, v)
	r.writeLocked(tx, v)
}

// Commit records a successful commit.
func (r *Recorder) Commit(tx word.TxID) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ops = append(r.ops, Op{Tx: tx, Kind: OpCommit})
}

// Abort records an abort and pops the transaction's installed versions:
// under strict two-phase locking the write locks were held to the end, so
// no other transaction can have observed them, and the stack top reverts
// to the pre-transaction version — matching the in-place undo.
func (r *Recorder) Abort(tx word.TxID) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, v := range r.written[tx] {
		stack := r.versions[v]
		kept := stack[:0]
		for _, ver := range stack {
			if ver.tx != tx {
				kept = append(kept, ver)
			}
		}
		r.versions[v] = kept
	}
	delete(r.written, tx)
	r.ops = append(r.ops, Op{Tx: tx, Kind: OpAbort})
}

// Relocate rebases the variable identities of the objects one collection
// cycle moved — wire it to the collectors' relocation hook. No Read/Write on
// a moving object can be concurrent with its move. A cycle's targets are
// never its sources, so an entry inserted mid-iteration translates to itself.
func (r *Recorder) Relocate(ms word.Moves) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for a, v := range r.varOf {
		if to := ms.Translate(a); to != a {
			delete(r.varOf, a)
			r.varOf[to] = v
		}
	}
}

// History snapshots the recorded trace.
func (r *Recorder) History() History {
	r.mu.Lock()
	defer r.mu.Unlock()
	return History{Ops: append([]Op(nil), r.ops...)}
}

// Violation is the checker's failure report: why, which transactions form
// the cycle (if any), and the offending history for printing.
type Violation struct {
	Reason string
	Cycle  []word.TxID
	H      History
}

// Error formats the violation with the offending history attached.
func (v *Violation) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "histcheck: %s", v.Reason)
	if len(v.Cycle) > 0 {
		fmt.Fprintf(&b, " (cycle %v)", v.Cycle)
	}
	b.WriteString("\noffending history:\n")
	if len(v.H.Ops) <= 400 {
		b.WriteString(v.H.String())
	} else {
		// Print only the cycle members' ops of an oversized history.
		in := make(map[word.TxID]bool, len(v.Cycle))
		for _, tx := range v.Cycle {
			in[tx] = true
		}
		for i, op := range v.H.Ops {
			if in[op.Tx] {
				fmt.Fprintf(&b, "%4d  %s\n", i, op.String())
			}
		}
	}
	return b.String()
}

// Check verifies that the history is conflict-serializable. It returns nil
// for a serializable history and a *Violation otherwise. Only committed
// transactions enter the serialization graph; a committed read that
// observed a version whose writer never committed is itself a violation
// (dirty or aborted read — impossible under correct strict 2PL).
func Check(h History) error {
	committed := make(map[word.TxID]bool)
	for _, op := range h.Ops {
		if op.Kind == OpCommit {
			committed[op.Tx] = true
		}
	}

	// Per-variable install order of committed writers, and the position of
	// each committed version within it.
	install := make(map[uint32][]version)
	pos := make(map[uint32]map[version]int)
	for _, op := range h.Ops {
		if op.Kind != OpWrite || !committed[op.Tx] {
			continue
		}
		v := version{tx: op.Tx, seq: op.Seq}
		if pos[op.Var] == nil {
			pos[op.Var] = make(map[version]int)
		}
		pos[op.Var][v] = len(install[op.Var])
		install[op.Var] = append(install[op.Var], v)
	}

	adj := make(map[word.TxID]map[word.TxID]bool)
	edge := func(from, to word.TxID) {
		if from == to {
			return
		}
		if adj[from] == nil {
			adj[from] = make(map[word.TxID]bool)
		}
		adj[from][to] = true
	}

	for i, op := range h.Ops {
		if op.Kind != OpRead || !committed[op.Tx] {
			continue
		}
		if op.FromTx != 0 && op.FromTx != op.Tx && !committed[op.FromTx] {
			return &Violation{
				Reason: fmt.Sprintf("op %d (%s): read a version of v%d written by tx %d, which never committed",
					i, op.String(), op.Var, op.FromTx),
				H: h,
			}
		}
		// wr: version writer happens-before reader.
		if op.FromTx != 0 {
			edge(op.FromTx, op.Tx)
		}
		// rw: reader happens-before the writer that overwrote the version
		// it read (the first later writer that is not the reader itself;
		// ww edges carry the dependency to the rest transitively).
		order := install[op.Var]
		start := 0
		if op.FromTx != 0 {
			p, ok := pos[op.Var][version{tx: op.FromTx, seq: op.FromSeq}]
			if !ok {
				continue // version vanished from the committed order: self-read of an uncommitted seq
			}
			start = p + 1
		}
		for _, w := range order[start:] {
			if w.tx != op.Tx {
				edge(op.Tx, w.tx)
				break
			}
		}
	}

	// ww: adjacent distinct committed writers in each variable's order.
	for _, order := range install {
		for i := 1; i < len(order); i++ {
			if order[i-1].tx != order[i].tx {
				edge(order[i-1].tx, order[i].tx)
			}
		}
	}

	if cycle := findCycle(adj); len(cycle) > 0 {
		return &Violation{
			Reason: "serialization graph has a cycle: execution is not conflict-serializable",
			Cycle:  cycle,
			H:      h,
		}
	}
	return nil
}

// findCycle is a deterministic DFS cycle finder over the tx graph (nodes
// and edges visited in ascending id order).
func findCycle(adj map[word.TxID]map[word.TxID]bool) []word.TxID {
	nodes := make([]word.TxID, 0, len(adj))
	for n := range adj {
		nodes = append(nodes, n)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
	const (
		unvisited = 0
		onStack   = 1
		done      = 2
	)
	state := make(map[word.TxID]int)
	var stack []word.TxID
	var cycle []word.TxID
	var dfs func(n word.TxID) bool
	dfs = func(n word.TxID) bool {
		state[n] = onStack
		stack = append(stack, n)
		next := make([]word.TxID, 0, len(adj[n]))
		for t := range adj[n] {
			next = append(next, t)
		}
		sort.Slice(next, func(i, j int) bool { return next[i] < next[j] })
		for _, t := range next {
			switch state[t] {
			case onStack:
				for i := len(stack) - 1; i >= 0; i-- {
					cycle = append(cycle, stack[i])
					if stack[i] == t {
						break
					}
				}
				for i, j := 0, len(cycle)-1; i < j; i, j = i+1, j-1 {
					cycle[i], cycle[j] = cycle[j], cycle[i]
				}
				return true
			case unvisited:
				if dfs(t) {
					return true
				}
			}
		}
		stack = stack[:len(stack)-1]
		state[n] = done
		return false
	}
	for _, n := range nodes {
		if state[n] == unvisited && dfs(n) {
			return cycle
		}
	}
	return nil
}

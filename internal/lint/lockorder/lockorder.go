// Package lockorder implements the repo-wide lock-acquisition-order analyzer:
// it builds the program's lock-order graph — an edge A → B for every place
// the code can acquire lock class B while holding lock class A — and reports
// every edge that participates in a cycle. A cycle means two code paths can
// acquire the same two lock classes in opposite orders, the classic deadlock
// PR 7's review found in bufpool (faultLocked registering frames with the
// clock sweep while holding a shard lock: shard → evictMu, against the
// sweep's evictMu → shard).
//
// Lock classes, not lock instances: every sync.Mutex/RWMutex reached through
// the same struct field (or the same package-level variable) is one class, so
// a 16-way shard array is the single class "shard.mu" and the analysis scales
// to any fan-out. RLock counts as an acquisition of the same class — reader
// and writer locks on one RWMutex still order against other locks.
//
// The analysis is interprocedural via function summaries. Each function body
// is walked linearly, tracking the held set: Lock pushes a class, Unlock pops
// it (a deferred Unlock holds the class to the end of the function), and a
// `go` statement or function literal starts a fresh walk with an empty held
// set (a new goroutine inherits no locks; a literal runs who-knows-when).
// Direct nesting records an edge held → acquired. Every call made with a
// non-empty held set records an edge from each held class to every class in
// the callee's transitive acquisition summary — the fixpoint union of all
// locks a call into that function may take, which is how an order inversion
// hidden two helpers deep still connects to the graph.
//
// Known approximations, all deliberate: the walk is linear (branch-local
// Lock/Unlock pairs are modeled; locks held across exotic control flow may
// be missed or over-held), locks in local variables or parameters form no
// class (they cannot express a cross-function order), and calls through
// plain function values resolve to nothing. The acquisition summary also
// includes locks taken by goroutines a callee spawns — an over-approximation
// that can add edges that are not same-goroutine orders; annotate such a
// finding with //ordlint:ignore if it arises.
package lockorder

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"ordxml/internal/lint/framework"
)

// Analyzer is the lock-order pass.
var Analyzer = &framework.Analyzer{
	Name:       "lockorder",
	Doc:        "lock acquisition order must be acyclic across the whole program (cycles are potential deadlocks)",
	RunProgram: run,
}

// lockOp classifies a mutex method call.
type lockOp int

const (
	opNone lockOp = iota
	opAcquire
	opRelease
)

// classify returns the lock operation a sync.Mutex/RWMutex method performs.
func classify(name string) lockOp {
	switch name {
	case "Lock", "RLock", "TryLock", "TryRLock":
		return opAcquire
	case "Unlock", "RUnlock":
		return opRelease
	}
	return opNone
}

// isSyncLockMethod reports whether obj is a method of sync.Mutex or
// sync.RWMutex.
func isSyncLockMethod(obj *types.Func) bool {
	if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false
	}
	recv := framework.RecvName(obj)
	return recv == "Mutex" || recv == "RWMutex"
}

// edge is one observed acquisition order: to was (or may be) acquired while
// from was held.
type edge struct {
	from, to string
}

type edgeInfo struct {
	pos token.Pos
	via string // "" for a direct nested acquisition, else the callee name
}

type analysis struct {
	pass  *framework.ProgramPass
	prog  *framework.Program
	edges map[edge]edgeInfo
	// acquired collects each function's direct acquisitions (closures
	// included) for the transitive summary.
	acquired map[*framework.Func][]string
	// leadRelease marks classes a function releases before ever acquiring —
	// the hand-over-hand shape (wal.Log.commitLocked: called with the lock
	// held, it unlocks for the disk work and relocks). Re-acquiring such a
	// class is not a self-deadlock: the caller's hold was given up first.
	leadRelease map[*framework.Func]map[string]bool
	// heldCalls records call sites made with locks held, for the
	// interprocedural edges once summaries are known.
	heldCalls []heldCall
}

type heldCall struct {
	held []string
	site *framework.CallSite
	fn   *framework.Func
}

func run(pass *framework.ProgramPass) error {
	a := &analysis{
		pass:        pass,
		prog:        pass.Prog,
		edges:       map[edge]edgeInfo{},
		acquired:    map[*framework.Func][]string{},
		leadRelease: map[*framework.Func]map[string]bool{},
	}
	for _, fn := range a.prog.Functions() {
		a.walkFunc(fn)
	}

	// Transitive acquisition summaries, then the interprocedural edges: a
	// call with held set H may acquire anything in the callee's summary. The
	// second, "unsafe" summary excludes hand-over-hand re-acquisitions
	// (classes the function releases before acquiring) and gates self-edges
	// only: a callee that gives the caller's hold up before relocking cannot
	// deadlock against that same class, but an order against every OTHER
	// held class is still real.
	summaries := a.prog.UnionSummaries(func(fn *framework.Func) []string {
		return a.acquired[fn]
	})
	unsafeSums := a.prog.UnionSummaries(func(fn *framework.Func) []string {
		var out []string
		for _, k := range a.acquired[fn] {
			if !a.leadRelease[fn][k] {
				out = append(out, k)
			}
		}
		return out
	})
	for _, hc := range a.heldCalls {
		var may []string
		seen := map[string]bool{}
		mayUnsafe := map[string]bool{}
		for _, t := range hc.site.Targets {
			for k := range summaries[t] {
				if !seen[k] {
					seen[k] = true
					may = append(may, k)
				}
			}
			for k := range unsafeSums[t] {
				mayUnsafe[k] = true
			}
		}
		sort.Strings(may)
		callee := calleeName(hc.site)
		for _, to := range may {
			for _, from := range hc.held {
				if from == to && !mayUnsafe[to] {
					continue // hand-over-hand re-acquisition, not a self-cycle
				}
				a.addEdge(from, to, hc.site.Call.Pos(), callee)
			}
		}
	}

	a.reportCycles()
	return nil
}

// walkFunc walks one declared function; function literals inside it are
// walked as separate roots with an empty held set.
func (a *analysis) walkFunc(fn *framework.Func) {
	sites := map[*ast.CallExpr]*framework.CallSite{}
	for _, cs := range fn.Calls {
		sites[cs.Call] = cs
	}
	var roots []*ast.BlockStmt
	roots = append(roots, fn.Decl.Body)
	collected := map[*ast.BlockStmt]bool{fn.Decl.Body: true}
	// Function literals become separate roots, discovered during each walk.
	for len(roots) > 0 {
		body := roots[0]
		roots = roots[1:]
		w := &walker{a: a, fn: fn, sites: sites, skip: map[ast.Node]bool{}}
		w.walk(body)
		for _, lit := range w.lits {
			if !collected[lit.Body] {
				collected[lit.Body] = true
				roots = append(roots, lit.Body)
			}
		}
	}
}

// walker performs the linear held-set walk over one body.
type walker struct {
	a     *analysis
	fn    *framework.Func
	sites map[*ast.CallExpr]*framework.CallSite
	held  []string
	lits  []*ast.FuncLit
	skip  map[ast.Node]bool
}

func (w *walker) walk(body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil || w.skip[n] {
			return !w.skip[n]
		}
		switch st := n.(type) {
		case *ast.FuncLit:
			w.lits = append(w.lits, st)
			return false // separate root, empty held set
		case *ast.GoStmt:
			// The spawned goroutine holds none of our locks; its call and
			// closure are analyzed as lock-free roots.
			w.skip[st.Call] = true
			if lit, ok := st.Call.Fun.(*ast.FuncLit); ok {
				w.lits = append(w.lits, lit)
				w.skip[lit] = true
			}
			return true
		case *ast.DeferStmt:
			// A deferred Unlock keeps the class held to the end of the walk.
			// Other deferred calls are treated as calls at the defer site.
			if key, op := w.lockCall(st.Call); op == opRelease && key != "" {
				w.skip[st.Call] = true
			}
			return true
		case *ast.CallExpr:
			w.handleCall(st)
			return true
		}
		return true
	})
}

// handleCall processes one call expression in source order: a mutex
// acquisition, a mutex release, or an ordinary call site.
func (w *walker) handleCall(call *ast.CallExpr) {
	key, op := w.lockCall(call)
	switch op {
	case opAcquire:
		if key == "" {
			return
		}
		for _, h := range w.held {
			w.a.addEdge(h, key, call.Pos(), "")
		}
		w.held = append(w.held, key)
		w.a.acquired[w.fn] = append(w.a.acquired[w.fn], key)
		return
	case opRelease:
		if key == "" {
			return
		}
		for i := len(w.held) - 1; i >= 0; i-- {
			if w.held[i] == key {
				w.held = append(w.held[:i], w.held[i+1:]...)
				return
			}
		}
		// Releasing a class this body never acquired: the hand-over-hand
		// shape (the caller's hold is being given up).
		if !contains(w.a.acquired[w.fn], key) {
			if w.a.leadRelease[w.fn] == nil {
				w.a.leadRelease[w.fn] = map[string]bool{}
			}
			w.a.leadRelease[w.fn][key] = true
		}
		return
	}
	if len(w.held) == 0 {
		return
	}
	if cs, ok := w.sites[call]; ok && len(cs.Targets) > 0 {
		w.a.heldCalls = append(w.a.heldCalls, heldCall{
			held: append([]string(nil), w.held...),
			site: cs,
			fn:   w.fn,
		})
	}
}

// lockCall classifies call as a mutex operation and resolves the lock class
// key ("" when the mutex forms no class: local variables, parameters,
// unresolvable receivers).
func (w *walker) lockCall(call *ast.CallExpr) (string, lockOp) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", opNone
	}
	info := w.fn.Pkg.Info
	selection, ok := info.Selections[sel]
	if !ok {
		return "", opNone
	}
	obj, ok := selection.Obj().(*types.Func)
	if !ok || !isSyncLockMethod(obj) {
		return "", opNone
	}
	op := classify(obj.Name())
	if op == opNone {
		return "", opNone
	}
	return w.lockClass(sel, selection), op
}

// lockClass derives the lock-class key for the receiver of a mutex method
// call: "pkg.Type.field" for a mutex struct field (however deeply the
// receiver chain indexes or derefs to reach it), "pkg.var" for a
// package-level mutex variable, and "pkg.Type.<embedded path>" for a mutex
// promoted through embedding.
func (w *walker) lockClass(sel *ast.SelectorExpr, selection *types.Selection) string {
	info := w.fn.Pkg.Info
	recv := ast.Unparen(sel.X)
	t := info.TypeOf(recv)

	if framework.IsNamed(t, "sync", "Mutex", "RWMutex") {
		switch x := recv.(type) {
		case *ast.SelectorExpr:
			// base.field — the common shape. The class is the field on the
			// base's named type.
			if named := framework.NamedType(info.TypeOf(x.X)); named != nil {
				return typeKey(named) + "." + x.Sel.Name
			}
			return ""
		case *ast.Ident:
			obj := info.ObjectOf(x)
			if obj == nil || obj.Pkg() == nil {
				return ""
			}
			if obj.Parent() == obj.Pkg().Scope() {
				return obj.Pkg().Name() + "." + obj.Name()
			}
			return "" // local variable or parameter: no class
		}
		return ""
	}

	// Promoted method through embedding: the receiver is the outer struct;
	// the selection's index path names the embedded field chain.
	if named := framework.NamedType(t); named != nil {
		idx := selection.Index()
		parts := []string{typeKey(named)}
		cur := named.Underlying()
		for _, i := range idx[:len(idx)-1] {
			st, ok := cur.(*types.Struct)
			if !ok || i >= st.NumFields() {
				return ""
			}
			f := st.Field(i)
			parts = append(parts, f.Name())
			embedded := framework.NamedType(f.Type())
			if embedded == nil {
				return ""
			}
			cur = embedded.Underlying()
		}
		return strings.Join(parts, ".")
	}
	return ""
}

// calleeName renders a call site's callee as pkg.Recv.Name for diagnostics,
// preferring a resolved program target (the concrete method an interface
// call dispatches to) over the static callee.
func calleeName(cs *framework.CallSite) string {
	if len(cs.Targets) > 0 {
		return cs.Targets[0].Name()
	}
	return framework.FuncName(cs.Callee)
}

// typeKey renders a named type as pkg.Name.
func typeKey(named *types.Named) string {
	obj := named.Obj()
	if obj.Pkg() != nil {
		return obj.Pkg().Name() + "." + obj.Name()
	}
	return obj.Name()
}

func contains(s []string, k string) bool {
	for _, v := range s {
		if v == k {
			return true
		}
	}
	return false
}

// addEdge records one acquisition-order edge, keeping the first position
// observed for deterministic reporting.
func (a *analysis) addEdge(from, to string, pos token.Pos, via string) {
	// from == to is kept: re-acquiring a held class is a self-deadlock unless
	// the instances provably differ, and reads as a cycle of one.
	e := edge{from, to}
	if _, ok := a.edges[e]; !ok {
		a.edges[e] = edgeInfo{pos: pos, via: via}
	}
}

// reportCycles finds strongly connected components of the lock-order graph
// and reports every edge inside one (self-loops included).
func (a *analysis) reportCycles() {
	adj := map[string][]string{}
	nodes := map[string]bool{}
	for e := range a.edges {
		adj[e.from] = append(adj[e.from], e.to)
		nodes[e.from], nodes[e.to] = true, true
	}
	for k := range adj {
		sort.Strings(adj[k])
	}
	comp := tarjan(nodes, adj)

	type report struct {
		e    edge
		info edgeInfo
	}
	var reports []report
	for e, info := range a.edges {
		if e.from == e.to {
			reports = append(reports, report{e, info})
			continue
		}
		if comp[e.from] == comp[e.to] {
			reports = append(reports, report{e, info})
		}
	}
	sort.Slice(reports, func(i, j int) bool {
		if reports[i].e.from != reports[j].e.from {
			return reports[i].e.from < reports[j].e.from
		}
		return reports[i].e.to < reports[j].e.to
	})
	for _, r := range reports {
		cycle := a.cycleString(comp, r.e)
		if r.info.via != "" {
			a.pass.Reportf(r.info.pos,
				"lock order cycle: call to %s may acquire %s while %s is held (%s)",
				r.info.via, r.e.to, r.e.from, cycle)
		} else {
			a.pass.Reportf(r.info.pos,
				"lock order cycle: %s acquired while %s is held (%s)",
				r.e.to, r.e.from, cycle)
		}
	}
}

// cycleString renders the component the edge belongs to, e.g.
// "cycle: bufpool.Pool.evictMu → bufpool.shard.mu → bufpool.Pool.evictMu".
func (a *analysis) cycleString(comp map[string]int, e edge) string {
	if e.from == e.to {
		return fmt.Sprintf("cycle: %s → %s", e.from, e.to)
	}
	var members []string
	for k, c := range comp {
		if c == comp[e.from] {
			members = append(members, k)
		}
	}
	sort.Strings(members)
	return "cycle: " + strings.Join(members, " → ") + " → " + members[0]
}

// tarjan assigns each node a strongly-connected-component id.
func tarjan(nodes map[string]bool, adj map[string][]string) map[string]int {
	var order []string
	for n := range nodes {
		order = append(order, n)
	}
	sort.Strings(order)

	index := map[string]int{}
	low := map[string]int{}
	onStack := map[string]bool{}
	comp := map[string]int{}
	var stack []string
	next, ncomp := 0, 0

	var strong func(v string)
	strong = func(v string) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, wn := range adj[v] {
			if _, seen := index[wn]; !seen {
				strong(wn)
				if low[wn] < low[v] {
					low[v] = low[wn]
				}
			} else if onStack[wn] && index[wn] < low[v] {
				low[v] = index[wn]
			}
		}
		if low[v] == index[v] {
			for {
				u := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[u] = false
				comp[u] = ncomp
				if u == v {
					break
				}
			}
			ncomp++
		}
	}
	for _, n := range order {
		if _, seen := index[n]; !seen {
			strong(n)
		}
	}
	return comp
}

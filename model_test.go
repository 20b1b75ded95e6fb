package ordxml

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	osexec "os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ordxml/internal/core/xpath"
	"ordxml/internal/failpoint"
	"ordxml/internal/sqldb/btree"
	"ordxml/internal/xmlgen"
	"ordxml/internal/xmltree"
)

// Model harness. The paper's contract is that every encoding returns exactly
// the document-ordered node sequence an in-memory XPath evaluator would,
// before and after any update. The harness states it once: one generator
// writes a session of operations, one oracle (an xmltree per document,
// mutated in place, queried with xpath.Eval) says what each operation must
// do, and one checker compares the store with the oracle after every step:
// the document list and every document's serialisation, each query's node
// sequence, string values and one element's Serialize, and the integrity
// checker after every checkpoint and reopen. The same session runs on every
// configuration (seven encoding variants × memory, durable with the default
// pool, durable with 8 frames) under each fault plug-in:
//
//   - none;
//   - gc: GOGC=1 plus forced collections — page ids belong to the writer, so
//     no collection timing may change an answer;
//   - cancel: every call runs under a context that expires after a random
//     few microseconds; a cancelled mutation applies fully or not at all and
//     a cancelled read returns the oracle's answer or a typed error;
//   - ioerr: one WAL or page write fails mid-session; the store must degrade
//     to read-only, keep answering like the oracle and recover on reopen;
//   - crash: the session runs in a re-executed child killed at a failpoint,
//     and the reopened store must equal the acknowledged prefix of the
//     session, or that prefix plus the operation in flight.
//
// Operations name documents and nodes by position, never by id: the d-th
// stored document, and the n-th element (//*) or text node (//text()) of it
// in document order, each modulo the count. An op list is plain JSON; any
// subset of it still runs, which is what lets a failure shrink to a short
// list, and the crash child replays it as it is.

// modelOp is one step of a session.
type modelOp struct {
	Kind   string `json:"kind"` // load drop insert delete move setvalue rename query checkpoint reopen abandon
	Doc    int    `json:"doc,omitempty"`
	Node   int    `json:"node,omitempty"`
	Target int    `json:"target,omitempty"`
	Pos    string `json:"pos,omitempty"`
	// Name is a loaded document's name or a renamed element's tag; on a
	// reopen it names a store file lost before the open, which must then
	// fail naming it.
	Name  string `json:"name,omitempty"`
	XML   string `json:"xml,omitempty"`   // load: the document; insert: the fragment
	Value string `json:"value,omitempty"` // setvalue: the text; query: the XPath
}

var modelPositions = []string{"first-child", "last-child", "before", "after"}

// resolve maps op's positions onto a document with nElems elements and
// nTexts text nodes: the index in //* (in //text() for setvalue) of the node
// op acts on, and of its move target. ok is false when the document has no
// such node. A node that is deleted or moved is never the root: position 0
// stands for the last element there.
func resolve(op modelOp, nElems, nTexts int) (node, target int, ok bool) {
	switch op.Kind {
	case "setvalue":
		if nTexts == 0 {
			return 0, 0, false
		}
		return op.Node % nTexts, 0, true
	case "delete", "move":
		if nElems < 2 {
			return 0, 0, false
		}
		if node = op.Node % nElems; node == 0 {
			node = nElems - 1
		}
		return node, op.Target % nElems, true
	}
	return op.Node % nElems, 0, true
}

// maxModelTag splits the generator's tags into short ones and the
// 8,145-byte tag of oversizedFragment, whose index key fits no tree page on
// any encoding.
const maxModelTag = 8000

var (
	errSkip    = errors.New("op names nothing")
	errInvalid = errors.New("any engine error")
)

type oracleDoc struct {
	id   DocID
	name string
	root *xmltree.Node
}

// oracle is the model: the stored documents in id order.
type oracle struct{ docs []oracleDoc }

func (o *oracle) clone() *oracle {
	c := &oracle{docs: make([]oracleDoc, len(o.docs))}
	for i, d := range o.docs {
		c.docs[i] = oracleDoc{d.id, d.name, d.root.Clone()}
	}
	return c
}

func (o *oracle) doc(op modelOp) (int, bool) {
	if len(o.docs) == 0 {
		return 0, false
	}
	return op.Doc % len(o.docs), true
}

func nodesOf(root *xmltree.Node, kind xmltree.Kind) []*xmltree.Node {
	var out []*xmltree.Node
	root.Walk(func(n *xmltree.Node) bool {
		if n.Kind == kind {
			out = append(out, n)
		}
		return true
	})
	return out
}

// apply performs op on the oracle. It returns the inserted or moved
// subtree, and errSkip when op names nothing, the error the store must fail
// with when op is invalid (errInvalid for any), or nil. Ops that change no
// document (query, checkpoint, reopen, abandon) have no effect.
func (o *oracle) apply(op modelOp) (*xmltree.Node, error) {
	if op.Kind == "load" {
		root, err := xmltree.ParseString(op.XML)
		if err != nil {
			return nil, err
		}
		id := DocID(1)
		for _, d := range o.docs {
			id = max(id, d.id+1)
		}
		o.docs = append(o.docs, oracleDoc{id, op.Name, root})
		return nil, nil
	}
	di, ok := o.doc(op)
	if !ok {
		return nil, errSkip
	}
	if op.Kind == "drop" {
		o.docs = slices.Delete(o.docs, di, di+1)
		return nil, nil
	}
	root := o.docs[di].root
	elems, texts := nodesOf(root, xmltree.Element), nodesOf(root, xmltree.Text)
	ni, ti, ok := resolve(op, len(elems), len(texts))
	if !ok {
		return nil, errSkip
	}
	switch op.Kind {
	case "insert":
		frag, err := xmltree.ParseString(op.XML)
		if err != nil {
			return nil, err
		}
		if ni == 0 && (op.Pos == "before" || op.Pos == "after") {
			return nil, errInvalid
		}
		for _, e := range nodesOf(frag, xmltree.Element) {
			if len(e.Tag) > maxModelTag {
				return nil, btree.ErrKeyTooLarge
			}
		}
		place(frag, elems[ni], op.Pos)
		return frag, nil
	case "delete":
		detach(elems[ni])
	case "move":
		src, tgt := elems[ni], elems[ti]
		if ti == 0 && (op.Pos == "before" || op.Pos == "after") {
			return nil, errInvalid
		}
		for p := tgt; p != nil; p = p.Parent {
			if p == src {
				return nil, errInvalid
			}
		}
		detach(src)
		place(src, tgt, op.Pos)
		return src, nil
	case "setvalue":
		texts[ni].Value = op.Value
	case "rename":
		elems[ni].Tag = op.Name
	}
	return nil, nil
}

func place(node, target *xmltree.Node, pos string) {
	switch pos {
	case "first-child":
		node.Parent = target
		target.Children = slices.Insert(target.Children, 0, node)
	case "last-child":
		target.AddChild(node)
	default:
		p, idx := target.Parent, target.ChildIndex()
		if pos == "after" {
			idx++
		}
		node.Parent = p
		p.Children = slices.Insert(p.Children, idx, node)
	}
}

func detach(n *xmltree.Node) {
	p := n.Parent
	p.Children = slices.Delete(p.Children, n.ChildIndex(), n.ChildIndex()+1)
	n.Parent = nil
}

// modelConfig is one encoding variant on one kind of storage.
type modelConfig struct {
	name    string // "<encoding>/<storage>"
	opts    Options
	durable bool
}

// modelConfigs are the seven encoding variants of the update package's
// tests × memory, durable with the default pool and durable with 8 frames
// (small enough that every session evicts and faults).
func modelConfigs() (out []modelConfig) {
	for _, storage := range []string{"memory", "durable", "pool=8"} {
		for _, e := range []struct {
			name string
			opts Options
		}{
			{"global", Options{Encoding: Global}},
			{"local", Options{Encoding: Local}},
			{"dewey", Options{Encoding: Dewey}},
			{"global_gap", Options{Encoding: Global, Gap: 16}},
			{"local_gap", Options{Encoding: Local, Gap: 16}},
			{"dewey_gap", Options{Encoding: Dewey, Gap: 16}},
			{"dewey_text", Options{Encoding: Dewey, DeweyAsText: true}},
		} {
			if storage == "pool=8" {
				e.opts.BufferPoolFrames = 8
			}
			out = append(out, modelConfig{e.name + "/" + storage, e.opts, storage != "memory"})
		}
	}
	return out
}

func modelConfigNamed(name string) modelConfig {
	for _, c := range modelConfigs() {
		if c.name == name {
			return c
		}
	}
	panic("model: no configuration " + name)
}

// modelQueries are the fixed queries a query step draws from: every axis
// the translator supports, positional and value predicates, matches nested
// inside other matches (valuesFixture), attribute and text nodes, and
// nothing.
var modelQueries = []string{
	"//*", "//text()", "/*", "/*/*[2]", "//*[2]", "//a", "//a//a", "//b", "//b/c", "//a/b",
	"//c//a", "//a[1]", "//a[last()]", "//b[last()]", "//a/following-sibling::*",
	"//c/preceding-sibling::*[1]", "//leaf/ancestor::ins", "//c/parent::*", "//b/..",
	"//a/ancestor::*", "//ins[@n = '3']", "//ins[leaf = 'v2']", "//a[@id = '2']",
	"//a/text()", "//*/@id", "//*/@n", "//*/@k", "//b/@k", "//item/name", "//keyword",
	"/site/regions/*/item[2]/name", "//item[last()]", "//description//keyword",
	"//item[quantity = '5']", "//nosuch", "/r/nosuch//a",
}

// valuesFixture nests a inside a, so one query's matches lie inside each
// other's subtrees, and mixes text, attributes and empty elements.
const valuesFixture = `<r><a id="1">x<a id="2">y<b k="v">z</b><a id="3"/></a>w</a>` +
	`<c>t<a id="4">u<b/></a></c><b k="w">q<c><a>v<a>s</a></a></c></b></r>`

// randomQuery draws a path of one to three child or descendant steps over
// the generated documents' tags, some with a positional predicate or a text
// or attribute step at the end.
func randomQuery(r *rand.Rand) string {
	tags := []string{"a", "b", "c", "d", "ins", "item", "*"}
	var sb strings.Builder
	for k := 1 + r.Intn(3); k > 0; k-- {
		sb.WriteString([]string{"/", "//"}[min(1, r.Intn(3))])
		sb.WriteString(tags[r.Intn(len(tags))])
		if r.Intn(4) == 0 {
			sb.WriteString([]string{"[1]", "[2]", "[last()]"}[r.Intn(3)])
		}
	}
	switch r.Intn(6) {
	case 0:
		sb.WriteString("/text()")
	case 1:
		sb.WriteString("/@*")
	}
	return sb.String()
}

// catalogXML is a small catalog: 2 regions of 20 items do not fit 8 frames.
func catalogXML(seed int64) string {
	return xmlgen.Catalog(xmlgen.CatalogConfig{
		Regions: 2, ItemsPerRegion: 20, KeywordsPerItem: 1, DescriptionWords: 4, Seed: seed,
	}).String()
}

// oversizedFragment's tag makes an index key no tree page can hold.
var oversizedFragment = "<t" + strings.Repeat("x", 8144) + "/>"

// modelSession generates n seeded operations.
func modelSession(seed int64, n int) []modelOp {
	r := rand.New(rand.NewSource(seed))
	load := func(i int) modelOp {
		xml := []string{xmlgen.Random(xmlgen.DefaultRandom(seed*31 + int64(i))).String(),
			catalogXML(seed + int64(i)), valuesFixture}[r.Intn(3)]
		return modelOp{Kind: "load", Name: fmt.Sprintf("d%d", i), XML: xml}
	}
	ops := []modelOp{load(0)}
	docs := 1
	for i := 1; len(ops) < n; i++ {
		op := modelOp{Doc: r.Intn(4), Node: r.Intn(1 << 16), Target: r.Intn(1 << 16),
			Pos: modelPositions[r.Intn(len(modelPositions))]}
		switch w := r.Intn(100); {
		case i == n/2:
			op = modelOp{Kind: "checkpoint"}
		case docs == 0 || w < 5:
			op = load(i)
			docs++
		case w < 8:
			op.Kind = "drop"
			docs--
			ops = append(ops, op)
			if r.Intn(2) == 0 {
				op = load(i)
				docs++
			}
		case w < 31:
			op.Kind = "insert"
			op.XML = []string{
				fmt.Sprintf(`<ins n="%d"><leaf>v%d</leaf><b><c/></b></ins>`, i%5, i%5),
				fmt.Sprintf(`<a n="%d">s%d<a><b>t%d</b></a>u</a>`, i, i, i),
				fmt.Sprintf(`<E%d>t%d</E%d>`, i, i, i),
			}[r.Intn(3)]
			if r.Intn(50) == 0 {
				op.XML = oversizedFragment
			}
		case w < 39:
			op.Kind = "delete"
		case w < 47:
			op.Kind = "move"
		case w < 55:
			op.Kind, op.Value = "setvalue", fmt.Sprintf("v%d", i)
		case w < 60:
			op.Kind, op.Name = "rename", []string{"a", "b", "c", "item", fmt.Sprintf("N%d", i)}[r.Intn(5)]
		case w < 80:
			op.Kind, op.Value = "query", modelQueries[r.Intn(len(modelQueries))]
			if r.Intn(3) == 0 {
				op.Value = randomQuery(r)
			}
		case w < 87:
			op = modelOp{Kind: "checkpoint"}
		case w < 94:
			op = modelOp{Kind: "reopen"}
		default:
			op = modelOp{Kind: "abandon"}
		}
		ops = append(ops, op)
	}
	return ops[:n]
}

// modelRun drives one session against one store and the oracle.
type modelRun struct {
	cfg   modelConfig
	fault string
	dir   string // the store directory (durable configurations)
	rng   *rand.Rand
	store *Store
	model *oracle
	lists map[DocID]map[string]listed // listings valid until the next mutation

	checkpointed bool   // a checkpoint has installed the manifest
	failedLogged int    // logged mutations that failed since the last checkpoint
	ioStep       int    // ioerr: the step from which the next mutation or checkpoint fails
	injected     string // ioerr: the failpoint whose write failure degraded the store
	strict       bool   // the unshrunk session: its fault must have fired by the end
	degraded     bool
	alt          *oracle // degraded: the state if the failed mutation reached the log
	done         bool    // the store is gone for good (a lost manifest)

	opened func(*Store)    // called with every store the run opens
	ack    func(int) error // called after every step
}

func newModelRun(cfg modelConfig, fault, dir string, seed int64, n int) *modelRun {
	rng := rand.New(rand.NewSource(seed))
	return &modelRun{cfg: cfg, fault: fault, dir: dir, rng: rng, model: &oracle{}, ioStep: n/4 + rng.Intn(n/2+1)}
}

// session runs ops, returning the first divergence from the oracle.
func (r *modelRun) session(ops []modelOp) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v\n%s", p, debug.Stack())
		}
	}()
	if r.fault == "gc" {
		defer debug.SetGCPercent(debug.SetGCPercent(1))
	}
	if r.fault == "ioerr" {
		defer failpoint.Reset() // a panic between arm and disarm leaves it armed
	}
	if err := r.open(); err != nil {
		return err
	}
	defer func() {
		if r.store != nil {
			r.store.Close()
		}
	}()
	for i, op := range ops {
		if r.done {
			break
		}
		if err := r.do(i, op); err != nil {
			return fmt.Errorf("step %d (%s): %w", i, op.Kind, err)
		}
		if r.fault == "gc" {
			runtime.GC()
		}
		if r.ack != nil {
			if err := r.ack(i); err != nil {
				return err
			}
		}
	}
	if r.strict && r.fault == "ioerr" && r.injected == "" {
		return fmt.Errorf("ioerr: no write failed from step %d on", r.ioStep)
	}
	if r.degraded {
		return r.reopen(false, "")
	}
	return nil
}

func (r *modelRun) do(i int, op modelOp) error {
	switch op.Kind {
	case "query":
		return r.query(op)
	case "checkpoint":
		return r.checkpoint(i)
	case "reopen", "abandon":
		return r.reopen(op.Kind == "abandon", op.Name)
	}
	return r.mutate(i, op)
}

func (r *modelRun) open() error {
	var err error
	if opts := r.cfg.opts; r.cfg.durable {
		if r.checkpointed {
			// The checkpoint recorded the encoding; what a reopen asks for
			// is ignored.
			opts = Options{Encoding: Local, Gap: 3, BufferPoolFrames: opts.BufferPoolFrames}
		}
		r.store, err = OpenDurable(r.dir, opts)
	} else {
		r.store, err = Open(r.cfg.opts)
	}
	if err != nil {
		return fmt.Errorf("open: %w", err)
	}
	r.lists = map[DocID]map[string]listed{}
	if r.opened != nil {
		r.opened(r.store)
	}
	return nil
}

// ctx is the context one store call runs under: under the cancel plug-in it
// expires within 40 µs, and for one call in five before the call starts.
func (r *modelRun) ctx() (context.Context, context.CancelFunc) {
	if r.fault != "cancel" {
		return context.Background(), func() {}
	}
	return context.WithTimeout(context.Background(), time.Duration(r.rng.Intn(50)-10)*time.Microsecond)
}

// canceled reports whether err is the typed outcome of a cancelled call.
func (r *modelRun) canceled(err error) bool {
	return r.fault == "cancel" && (errors.Is(err, ErrCanceled) || errors.Is(err, ErrDeadlineExceeded))
}

// inject arms the ioerr plug-in's failpoint for the call at step i, until
// a write has failed: a WAL sync for a mutation and, on the 8-frame pool, a
// page write for a checkpoint (so a session on the default pool always
// fails its log). It returns the disarm and the failpoint armed, or "".
func (r *modelRun) inject(i int, checkpoint bool) (func(), string) {
	if r.fault != "ioerr" || r.injected != "" || r.degraded || i < r.ioStep ||
		checkpoint && r.cfg.opts.BufferPoolFrames == 0 {
		return func() {}, ""
	}
	name, mode := "wal.sync.before-fsync", failpoint.Error
	if checkpoint {
		name, mode = "pagefile.write", failpoint.Enospc
	}
	if err := failpoint.Arm(name, mode, 1); err != nil {
		panic(err)
	}
	return func() { failpoint.Disarm(name) }, name
}

// degrade handles a call that the write failure injected at failpoint fp
// failed: the error must be the injected one, or ErrReadOnly when an
// earlier write of the call failed, and the store degraded by it. alt is
// the state a reopen may surface, when the failed record reached the log.
func (r *modelRun) degrade(err error, alt *oracle, fp string) error {
	ok, cause := r.store.Degraded()
	if !ok || !strings.Contains(cause, fp) {
		return fmt.Errorf("store not degraded by %s (%q) after %v", fp, cause, err)
	}
	if !errors.Is(err, failpoint.ErrInjected) && !errors.Is(err, ErrReadOnly) {
		return fmt.Errorf("injected write failure reported as %v", err)
	}
	r.injected, r.degraded, r.alt = fp, true, alt
	return r.check()
}

func (r *modelRun) mutate(i int, op modelOp) error {
	next := r.model.clone()
	placed, want := next.apply(op)
	if want == errSkip {
		return nil
	}
	var doc DocID
	var node, target NodeID
	if di, ok := r.model.doc(op); ok && op.Kind != "load" {
		doc = r.model.docs[di].id
		if op.Kind != "drop" {
			q := "//*"
			if op.Kind == "setvalue" {
				q = "//text()"
			}
			l, err := r.list(r.model.docs[di], q)
			if err != nil {
				return err
			}
			ni, ti, _ := resolve(op, len(l.got), len(l.got))
			node, target = l.got[ni].ID, l.got[ti].ID
		}
	}
	ctx, cancel := r.ctx()
	defer cancel()
	disarm, armed := func() {}, ""
	if want == nil {
		disarm, armed = r.inject(i, false)
	}
	rep, err := r.call(ctx, op, doc, node, target)
	disarm()
	clear(r.lists)
	switch {
	case r.degraded:
		if !errors.Is(err, ErrReadOnly) {
			return fmt.Errorf("mutation on a degraded store: %v, want ErrReadOnly", err)
		}
		return r.check()
	case err != nil && r.canceled(err):
		return r.check()
	case err != nil && armed != "":
		return r.degrade(err, next, armed)
	case (err == nil) != (want == nil):
		return fmt.Errorf("store error %v, oracle %v", err, want)
	case want != nil && want != errInvalid && !errors.Is(err, want):
		return fmt.Errorf("store error %v, want %v", err, want)
	case want != nil:
		if r.cfg.durable {
			r.failedLogged++
		}
		return r.check()
	}
	r.model = next
	if placed != nil {
		got, err := r.store.Serialize(doc, rep.NewID)
		if err != nil || got != placed.String() {
			return fmt.Errorf("subtree at the reported id %d: %q (%v), oracle %q", rep.NewID, got, err, placed.String())
		}
	}
	return r.check()
}

func (r *modelRun) call(ctx context.Context, op modelOp, doc DocID, node, target NodeID) (UpdateReport, error) {
	s := r.store
	pos, _ := ParsePosition(op.Pos)
	switch op.Kind {
	case "load":
		id, err := s.LoadCtx(ctx, op.Name, strings.NewReader(op.XML))
		return UpdateReport{NewID: id}, err
	case "drop":
		return UpdateReport{}, s.DropCtx(ctx, doc)
	case "insert":
		return s.InsertCtx(ctx, doc, node, pos, op.XML)
	case "delete":
		return s.DeleteCtx(ctx, doc, node)
	case "move":
		return s.MoveCtx(ctx, doc, node, target, pos)
	case "setvalue":
		return UpdateReport{}, s.SetValueCtx(ctx, doc, node, op.Value)
	case "rename":
		return UpdateReport{}, s.RenameCtx(ctx, doc, node, op.Name)
	}
	return UpdateReport{}, fmt.Errorf("model: unknown op kind %q", op.Kind)
}

func (r *modelRun) checkpoint(i int) error {
	if !r.cfg.durable {
		return r.intact()
	}
	disarm, armed := r.inject(i, true)
	err := r.store.Checkpoint()
	disarm()
	degraded, _ := r.store.Degraded()
	switch {
	case r.degraded:
		if !errors.Is(err, ErrReadOnly) {
			return fmt.Errorf("checkpoint of a degraded store: %v, want ErrReadOnly", err)
		}
		return r.check()
	case armed != "" && (err != nil || degraded):
		// The failed write may be the flush's or an eviction's while the
		// manifest was built; either way the checkpoint must fail.
		if err == nil {
			return fmt.Errorf("checkpoint returned nil on a store it degraded")
		}
		return r.degrade(err, nil, armed)
	case err != nil:
		return fmt.Errorf("checkpoint: %w", err)
	}
	r.checkpointed, r.failedLogged = true, 0
	return r.intact()
}

// reopen closes the store — or, for abandon, drops it without Close as a
// process exit would — and opens its directory again. With lose set, that
// file is removed first and the open must fail naming it.
func (r *modelRun) reopen(abandon bool, lose string) error {
	if !r.cfg.durable {
		return r.intact()
	}
	if abandon {
		r.store = nil
		runtime.GC()
	} else if err := r.store.Close(); err != nil && !r.degraded {
		return fmt.Errorf("close: %w", err)
	}
	if lose != "" {
		r.store, r.done = nil, true
		if err := os.Remove(filepath.Join(r.dir, lose)); err != nil {
			return err
		}
		s, err := OpenDurable(r.dir, r.cfg.opts)
		if err == nil {
			s.Close()
			return fmt.Errorf("store opened without its %s", lose)
		}
		if !strings.Contains(err.Error(), lose) {
			return fmt.Errorf("open without %s: the error does not name it: %v", lose, err)
		}
		return nil
	}
	if err := r.open(); err != nil {
		return err
	}
	if ok, cause := r.store.Degraded(); ok {
		return fmt.Errorf("reopened store degraded: %s", cause)
	}
	want := "pages.db wal.log"
	if r.checkpointed {
		want = "meta.db pages.db wal.log"
	}
	entries, err := os.ReadDir(r.dir)
	if err != nil {
		return err
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	if got := strings.Join(names, " "); got != want {
		return fmt.Errorf("store directory holds %q, want %q", got, want)
	}
	if r.alt != nil && r.check() != nil {
		r.model = r.alt
	}
	r.degraded, r.alt = false, nil
	if n := r.store.Metrics().Counters["wal.replay.op_errors"]; n != int64(r.failedLogged) {
		return fmt.Errorf("replay skipped %d failing operations, the session logged %d", n, r.failedLogged)
	}
	return r.intact()
}

func (r *modelRun) intact() error {
	problems, err := r.store.CheckIntegrity()
	if err != nil || len(problems) > 0 {
		return fmt.Errorf("integrity: %v %v", err, problems)
	}
	return r.check()
}

// check compares the document list and every document with the oracle.
func (r *modelRun) check() error {
	docs, err := r.store.Documents()
	if err != nil {
		return fmt.Errorf("documents: %w", err)
	}
	if len(docs) != len(r.model.docs) {
		return fmt.Errorf("%d documents, oracle %d", len(docs), len(r.model.docs))
	}
	for i, d := range r.model.docs {
		if docs[i].ID != d.id || docs[i].Name != d.name {
			return fmt.Errorf("document %d is %d %q, oracle %d %q", i, docs[i].ID, docs[i].Name, d.id, d.name)
		}
		got, err := r.store.SerializeDocument(d.id)
		if want := d.root.String(); err != nil || got != want {
			return fmt.Errorf("document %d: %v\n%s", d.id, err, firstDiff(got, want))
		}
	}
	if r.store.Durable() && !r.degraded {
		if lag := r.store.Metrics().Gauges["wal.durable_lag"]; lag != 0 {
			return fmt.Errorf("%d acknowledged log records not durable", lag)
		}
	}
	return nil
}

func firstDiff(got, want string) string {
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	lo := max(0, i-60)
	return fmt.Sprintf("at byte %d:\n got …%.120s\nwant …%.120s", i, got[lo:], want[lo:])
}

// listed is one document's nodes for one listing query (//*, //text() or
// //*/@*) as the store and the oracle return them, equal position by
// position in tag and value.
type listed struct {
	got  []Node
	want []*xmltree.Node
}

var listings = []string{"//*", "//text()", "//*/@*"}

func (r *modelRun) list(d oracleDoc, q string) (listed, error) {
	if l, ok := r.lists[d.id][q]; ok {
		return l, nil
	}
	want, err := xpath.EvalString(d.root, q)
	if err != nil {
		return listed{}, err
	}
	got, err := r.store.Query(d.id, q)
	if err != nil {
		return listed{}, fmt.Errorf("%s: %w", q, err)
	}
	if len(got) != len(want) {
		return listed{}, fmt.Errorf("%s: %d nodes, oracle %d", q, len(got), len(want))
	}
	for i, w := range want {
		if got[i].Tag != w.Tag || got[i].Value != w.Value {
			return listed{}, fmt.Errorf("%s: node %d is %q=%q, oracle %q=%q", q, i, got[i].Tag, got[i].Value, w.Tag, w.Value)
		}
	}
	if r.lists[d.id] == nil {
		r.lists[d.id] = map[string]listed{}
	}
	r.lists[d.id][q] = listed{got, want}
	return r.lists[d.id][q], nil
}

// query compares one query's node sequence and string values, and one
// element's Serialize, with the oracle.
func (r *modelRun) query(op modelOp) error {
	di, ok := r.model.doc(op)
	if !ok {
		return nil
	}
	d := r.model.docs[di]
	// Result nodes compare by kind and document-order position.
	gkey, wkey := map[NodeID]string{}, map[*xmltree.Node]string{}
	var elems listed
	for _, q := range listings {
		l, err := r.list(d, q)
		if err != nil {
			return err
		}
		for i := range l.got {
			k := q + "[" + strconv.Itoa(i) + "]"
			gkey[l.got[i].ID], wkey[l.want[i]] = k, k
		}
		if q == "//*" {
			elems = l
		}
	}
	want, err := oracleQuery(d.root, op.Value)
	if err != nil {
		return fmt.Errorf("oracle %q: %w", op.Value, err)
	}
	ctx, cancel := r.ctx()
	defer cancel()
	got, err := r.store.QueryCtx(ctx, d.id, op.Value)
	if err != nil && !r.canceled(err) {
		return fmt.Errorf("%q: %w", op.Value, err)
	}
	if err == nil {
		gk, wk := make([]string, len(got)), make([]string, len(want))
		for i, g := range got {
			gk[i] = gkey[g.ID]
		}
		for i, w := range want {
			wk[i] = wkey[w]
		}
		if !slices.Equal(gk, wk) {
			return fmt.Errorf("%q: nodes %v, oracle %v", op.Value, gk, wk)
		}
	}
	vals, err := r.store.QueryValuesCtx(ctx, d.id, op.Value)
	if err != nil && !r.canceled(err) {
		return fmt.Errorf("values %q: %w", op.Value, err)
	}
	if wv := xpath.StringValues(want); err == nil && !slices.Equal(vals, wv) {
		return fmt.Errorf("values %q: %q, oracle %q", op.Value, vals, wv)
	}
	ni, _, _ := resolve(op, len(elems.got), 0)
	xml, err := r.store.SerializeCtx(ctx, d.id, elems.got[ni].ID)
	if err != nil && !r.canceled(err) {
		return fmt.Errorf("serialize element %d: %w", ni, err)
	}
	if wx := elems.want[ni].String(); err == nil && xml != wx {
		return fmt.Errorf("serialize element %d:\n%s", ni, firstDiff(xml, wx))
	}
	return nil
}

// oracleQuery evaluates q on the oracle under the engine's value-predicate
// rule (README "Scope and deviations"): [P = 'lit'] and [. = 'lit'] on an
// element compare its text children, which is the XPath string value only
// for simple content. Spelled out as a text() step, the rule holds on the
// mixed content the generator makes as well.
func oracleQuery(root *xmltree.Node, q string) ([]*xmltree.Node, error) {
	p, err := xpath.Parse(q)
	if err != nil {
		return nil, err
	}
	text := xpath.Step{Axis: xpath.Child, Test: xpath.NodeTest{TextTest: true}}
	for _, s := range p.Steps {
		for j, pr := range s.Preds {
			last := s
			if pr.Path != nil {
				last = pr.Path.Steps[len(pr.Path.Steps)-1]
			}
			if pr.Kind != xpath.PredValue || last.Axis == xpath.Attribute || last.Test.TextTest {
				continue
			}
			steps := []xpath.Step{text}
			if pr.Path != nil {
				steps = append(slices.Clone(pr.Path.Steps), text)
			}
			s.Preds[j].Path = &xpath.Path{Steps: steps}
		}
	}
	return xpath.Eval(root, &xpath.Path{Absolute: true, Steps: p.Steps}), nil
}

// modelBudget is how many seeds a configuration runs under fault and how
// long a session is: one seed of 24 ops; three under gc for the plain
// encodings on durable storage, where a page's lifetime hangs on collection
// timing; or what ORDXML_SOAK says as "seeds:ops".
func modelBudget(t *testing.T, fault string, cfg modelConfig) (seeds, n int) {
	seeds, n = 1, 24
	if fault == "gc" && cfg.durable && cfg.opts.Gap == 0 && !cfg.opts.DeweyAsText {
		seeds = 3
	}
	if v := os.Getenv("ORDXML_SOAK"); v != "" {
		if _, err := fmt.Sscanf(v, "%d:%d", &seeds, &n); err != nil || seeds < 1 || n < 2 {
			t.Fatalf("ORDXML_SOAK=%q, want seeds:ops", v)
		}
	}
	return seeds, n
}

// crashRounds are the failpoints the crash plug-in kills its child at, with
// the storage each needs: WAL points on both pools; the points that only
// page traffic reaches (a dirty-page flush, an eviction, each checkpoint
// step) on the 8-frame pool; "replay" kills a second child during recovery
// itself.
var crashRounds = map[string][]string{
	"pool=8": {
		"wal.append=crash@3", "wal.sync.partial-write=crash@2", "wal.sync.before-fsync=crash@1",
		"wal.sync.before-fsync=crash@5", "wal.sync.after-fsync=crash@5", "wal.rotate.before=crash@1",
		"wal.rotate.before-rename=crash@1", "bufpool.flush=crash@1", "bufpool.flush=crash@5",
		"bufpool.evict=crash@1", "bufpool.evict=crash@20", "checkpoint.paged.before-flush=crash@1",
		"checkpoint.paged.before-meta=crash@1", "checkpoint.paged.after-meta=crash@1", "replay",
	},
	"durable": {
		"wal.append=crash@3", "wal.sync.partial-write=crash@2", "wal.sync.before-fsync=crash@1",
		"wal.sync.before-fsync=crash@5", "wal.sync.after-fsync=crash@5", "wal.rotate.before=crash@1",
		"wal.rotate.before-rename=crash@1", "replay",
	},
}

// readerRounds run snapshot readers in the child while it crashes, on
// dewey/durable under a subtest of their own.
var readerRounds = []string{"wal.sync.before-fsync=crash@5", "wal.sync.after-fsync=crash@5", "wal.append=crash@6"}

// TestModel runs generated sessions on every configuration under every
// fault plug-in, one subtest per seed. The crash rounds are spread over the
// encodings, one failpoint per subtest, and the reader rounds run on
// dewey/durable.
func TestModel(t *testing.T) {
	for fi, fault := range []string{"none", "gc", "cancel", "ioerr", "crash"} {
		t.Run(fault, func(t *testing.T) {
			for ci, cfg := range modelConfigs() {
				if !cfg.durable && (fault == "ioerr" || fault == "crash") {
					continue
				}
				t.Run(cfg.name, func(t *testing.T) {
					parallel(t, fault)
					seeds, n := modelBudget(t, fault, cfg)
					for s := 0; s < seeds; s++ {
						seed := int64(1000*fi + 100*s + ci)
						ops := modelSession(seed, n)
						if fault != "crash" {
							t.Run(fmt.Sprintf("seed=%d", s+1), func(t *testing.T) {
								runOrShrink(t, cfg.name+" "+fault, seed, ops, sessionRun(t, cfg, fault, seed, n))
							})
							continue
						}
						crash := func(t *testing.T, round string) {
							runOrShrink(t, cfg.name+" crash "+round, seed, ops, func(cand []modelOp) error {
								return crashRound(cfg, round, t.TempDir(), cand, len(cand) == n)
							})
						}
						_, storage, _ := strings.Cut(cfg.name, "/")
						for ri, round := range crashRounds[storage] {
							if ri%7 == ci%7 {
								t.Run(round, func(t *testing.T) { crash(t, round) })
							}
						}
						if cfg.name == "dewey/durable" {
							t.Run("readers", func(t *testing.T) {
								for _, round := range readerRounds {
									t.Run(round, func(t *testing.T) { crash(t, "readers/"+round) })
								}
							})
						}
					}
				})
			}
		})
	}
}

// parallel runs a configuration's sessions alongside the others of its
// plug-in, except under gc and ioerr, whose collector setting and failpoint
// belong to the whole process.
func parallel(t *testing.T, fault string) {
	if fault != "gc" && fault != "ioerr" {
		t.Parallel()
	}
}

// sessionRun runs a session of ops on a fresh store; a session of full ops
// is strict: its fault plug-in must fire.
func sessionRun(t *testing.T, cfg modelConfig, fault string, seed int64, full int) func([]modelOp) error {
	return func(ops []modelOp) error {
		r := newModelRun(cfg, fault, t.TempDir(), seed, len(ops))
		r.strict = len(ops) == full
		return r.session(ops)
	}
}

// runOrShrink runs ops and, on a divergence, fails with the seed and the op
// list delta-debugged: ever smaller chunks are dropped while the rest still
// fails, within a budget of 150 runs.
func runOrShrink(t *testing.T, what string, seed int64, ops []modelOp, run func([]modelOp) error) {
	t.Helper()
	first := run(ops)
	if first == nil {
		return
	}
	short, err := ops, first
	for n, budget := 2, 150; len(short) > 1 && budget > 0; {
		chunk := (len(short) + n - 1) / n
		shrunk := false
		for i := 0; i < len(short) && budget > 0 && !shrunk; i += chunk {
			cand := slices.Concat(short[:i], short[min(i+chunk, len(short)):])
			budget--
			if cerr := run(cand); cerr != nil {
				short, err, shrunk = cand, cerr, true
				n = max(n-1, 2)
			}
		}
		if !shrunk {
			if chunk == 1 {
				break
			}
			n = min(2*n, len(short))
		}
	}
	var list strings.Builder
	for i, op := range short {
		if len(op.XML) > 200 {
			op.XML = fmt.Sprintf("%.60s… (%d bytes)", op.XML, len(op.XML))
		}
		line, _ := json.Marshal(op)
		fmt.Fprintf(&list, "%3d %s\n", i, line)
	}
	t.Fatalf("%s, seed %d: %v\nshrunk to %d of %d ops, failing with: %v\n%s",
		what, seed, first, len(short), len(ops), err, list.String())
}

// modelDirEnv points a re-executed test binary at a crash session.
const modelDirEnv = "ORDXML_MODEL_DIR"

// crashSession is what the parent hands its child: the configuration, the
// ops, snapshot readers to run alongside, and whether to only recover.
type crashSession struct {
	Config  string    `json:"config"`
	Ops     []modelOp `json:"ops"`
	Readers int       `json:"readers,omitempty"`
	Recover bool      `json:"recover,omitempty"`
}

// crashRound runs ops in a child killed at round's failpoint, then checks
// that the reopened store equals the oracle after the acknowledged ops, or
// after those and the one in flight. A strict round must crash.
func crashRound(cfg modelConfig, round, dir string, ops []modelOp, strict bool) error {
	sess := crashSession{Config: cfg.name, Ops: ops}
	spec, readers := strings.CutPrefix(round, "readers/")
	if readers {
		sess.Readers = 3
	}
	if round == "replay" {
		spec = "wal.sync.after-fsync=crash@4"
	}
	crashed, err := runModelChild(dir, spec, sess)
	if err != nil {
		return err
	}
	if strict && !crashed {
		return fmt.Errorf("the session ran to its end without reaching %s", spec)
	}
	acked := 0
	if data, err := os.ReadFile(filepath.Join(dir, "acks")); err == nil {
		acked = strings.Count(string(data), "\n")
	}
	if round == "replay" {
		// Kill a second child mid-replay: an interrupted recovery must
		// change nothing the next one reads.
		sess.Recover = true
		if again, err := runModelChild(dir, "wal.replay.record=crash@1", sess); err != nil || !crashed || !again {
			return fmt.Errorf("replay round: session crashed %v, recovery crashed %v, %v", crashed, again, err)
		}
	}
	r := newModelRun(cfg, "none", filepath.Join(dir, "store"), 0, 0)
	if err := r.open(); err != nil {
		return fmt.Errorf("recovery after %d acks: %w", acked, err)
	}
	defer r.store.Close()
	if problems, err := r.store.CheckIntegrity(); err != nil || len(problems) > 0 {
		return fmt.Errorf("integrity after recovery: %v %v", err, problems)
	}
	// The oracle after the acknowledged ops, then after the one in flight.
	for _, op := range ops[:acked] {
		r.model.apply(op)
	}
	err = r.check()
	if err != nil && acked < len(ops) {
		r.model.apply(ops[acked])
		clear(r.lists)
		if r.check() == nil {
			err = nil
		}
	}
	if err != nil {
		return fmt.Errorf("recovered state after %d acks is neither that prefix nor the next: %w", acked, err)
	}
	return r.query(modelOp{Kind: "query", Value: "//*"})
}

// runModelChild re-executes the test binary as TestModelChild on the session
// in dir with the failpoint spec armed. crashed reports the failpoint's exit.
func runModelChild(dir, spec string, sess crashSession) (crashed bool, err error) {
	data, err := json.Marshal(sess)
	if err != nil {
		return false, err
	}
	if err := os.WriteFile(filepath.Join(dir, "session.json"), data, 0o644); err != nil {
		return false, err
	}
	cmd := osexec.Command(os.Args[0], "-test.run=^TestModelChild$", "-test.count=1")
	cmd.Env = append(os.Environ(), modelDirEnv+"="+dir, failpoint.EnvVar+"="+spec)
	out, err := cmd.CombinedOutput()
	var exit *osexec.ExitError
	if errors.As(err, &exit) && exit.ExitCode() == failpoint.CrashExitCode {
		return true, nil
	}
	if err != nil {
		return false, fmt.Errorf("child (%s): %v\n%s", spec, err, out)
	}
	return false, nil
}

// TestModelChild is the crash plug-in's re-executed half: it runs the
// session the parent left in its directory, checked against the oracle
// like any other, and appends a synced ack line after every step.
func TestModelChild(t *testing.T) {
	dir := os.Getenv(modelDirEnv)
	if dir == "" {
		t.Skip("crash child (spawned by TestModel's crash plug-in)")
	}
	data, err := os.ReadFile(filepath.Join(dir, "session.json"))
	if err != nil {
		t.Fatal(err)
	}
	var sess crashSession
	if err := json.Unmarshal(data, &sess); err != nil {
		t.Fatal(err)
	}
	r := newModelRun(modelConfigNamed(sess.Config), "none", filepath.Join(dir, "store"), 0, 0)
	if sess.Recover {
		if err := r.open(); err != nil {
			t.Fatal(err)
		}
		r.store.Close()
		return
	}
	ack, err := os.OpenFile(filepath.Join(dir, "acks"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer ack.Close()
	r.ack = func(i int) error {
		if _, err := fmt.Fprintf(ack, "%d\n", i); err != nil {
			return err
		}
		return ack.Sync()
	}
	// Snapshot readers race the session up to the crash, so that it lands
	// with reads in flight; what they read is not checked (a document may
	// vanish under them), what recovery finds is.
	var cur atomic.Pointer[Store]
	var stop atomic.Bool
	var wg sync.WaitGroup
	defer wg.Wait()
	defer stop.Store(true)
	r.opened = func(s *Store) { cur.Store(s) }
	for i := 0; i < sess.Readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				s := cur.Load()
				if s == nil {
					runtime.Gosched()
					continue
				}
				docs, _ := s.Documents()
				for _, d := range docs {
					s.SerializeDocument(d.ID)
					s.Query(d.ID, "//*")
				}
			}
		}()
	}
	if err := r.session(sess.Ops); err != nil {
		t.Fatal(err)
	}
}

package ordxml

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"ordxml/internal/core/xpath"
	"ordxml/internal/sqldb/btree"
	"ordxml/internal/vfs"
	"ordxml/internal/vfs/vfstest"
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
// checker after every checkpoint and reopen; on durable stores also the
// log: one record appended and the durable LSN one higher per logged
// operation. The same session runs on every configuration (seven encoding
// variants × memory, durable with the default pool, durable with 8 frames)
// under each fault plug-in:
//
//   - none;
//   - gc: GOGC=1 plus forced collections — page ids belong to the writer, so
//     no collection timing may change an answer;
//   - cancel: every call runs under a context that expires after a random
//     few microseconds; a cancelled mutation applies fully or not at all and
//     a cancelled read returns the oracle's answer or a typed error;
//   - ioerr: on a simulated disk (vfstest), one write, sync or rename of a
//     store file fails mid-session with EIO or ENOSPC; the store must degrade
//     to read-only, keep answering like the oracle and recover on reopen;
//   - crash: on a simulated disk that crashes before its k-th sync, the
//     store is abandoned and reopened from what the crash leaves on disk,
//     which must equal the acknowledged prefix of the session, or that
//     prefix plus the operation in flight.
//
// On the simulated disk a reopen is a power cut after Close: the store must
// have made durable everything it acknowledged.
//
// Operations name documents and nodes by position, never by id: the d-th
// stored document, and the n-th element (//*) or text node (//text()) of it
// in document order, each modulo the count. An op list is plain JSON; any
// subset of it still runs, which is what lets a failure shrink to a short
// list.

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
	dir   string      // the store directory (durable configurations)
	disk  *vfstest.FS // the simulated disk the store runs on, or nil for the OS
	rng   *rand.Rand
	store *Store
	model *oracle
	lists map[DocID]map[string]listed // listings valid until the next mutation

	checkpointed bool  // a checkpoint has installed the manifest
	ckptFailed   bool  // a failed checkpoint may have installed it
	sinceCkpt    int   // records logged since the last checkpoint
	failedLogged int   // of those, mutations that failed
	lsn          int64 // records logged
	appends      int64 // records logged since the store was opened
	rotations    int64 // checkpoints since the store was opened
	strict       bool  // the unshrunk session: its fault must have fired by the end
	degraded     bool
	alt          *oracle // degraded: the state if the failed record is read back
	done         bool    // the store is gone for good (a lost manifest)
	acked        int     // steps completed; after a crash, the one in flight

	ioStep   int           // ioerr: the step from which mutations and checkpoints run with the fault armed
	ioFault  vfstest.Fault // ioerr: the call that fails
	injected bool          // ioerr: the fault has fired

	opened func(*Store) // called with every store the run opens
}

// ioFaults are the calls the ioerr plug-in fails, one per session: a write
// and a sync of the log, of the page file and of the manifest's temporary
// file, the renames of a checkpoint and its directory sync.
var ioFaults = []vfstest.Fault{
	{Op: "write", Name: walFile}, {Op: "sync", Name: walFile},
	{Op: "write", Name: pagesFile}, {Op: "sync", Name: pagesFile},
	{Op: "write", Name: metaFile + ".tmp"}, {Op: "sync", Name: metaFile + ".tmp"},
	{Op: "rename", Name: metaFile + ".tmp"}, {Op: "sync", Name: "store"},
	{Op: "write", Name: walFile + ".rotate"}, {Op: "rename", Name: walFile + ".rotate"},
}

// newModelRun makes a run of n ops; an empty dir puts a durable store on a
// simulated disk, which ioerr and crash need.
func newModelRun(cfg modelConfig, fault, dir string, seed int64, n int) *modelRun {
	rng := rand.New(rand.NewSource(seed))
	r := &modelRun{cfg: cfg, fault: fault, dir: dir, rng: rng, model: &oracle{}}
	if dir == "" {
		r.dir, r.disk = "/store", vfstest.New()
	}
	// The fault is armed before the checkpoint at n/2, the only one a
	// session is sure to make.
	r.ioStep = n/4 + rng.Intn(n/4+1)
	r.ioFault = ioFaults[int(seed)%len(ioFaults)]
	r.ioFault.N, r.ioFault.Err = 1, []syscall.Errno{syscall.EIO, syscall.ENOSPC}[rng.Intn(2)]
	return r
}

func (r *modelRun) fsys() vfs.FS {
	if r.disk != nil {
		return r.disk
	}
	return vfs.OS
}

func (r *modelRun) crashed() bool { return r.disk != nil && r.disk.Crashed() }

// session runs ops, returning the first divergence from the oracle. A crash
// ends it without error: what the store does after it is a dead process's.
func (r *modelRun) session(ops []modelOp) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v\n%s", p, debug.Stack())
		}
		if r.crashed() {
			err = nil
		}
	}()
	if r.fault == "gc" {
		defer debug.SetGCPercent(debug.SetGCPercent(1))
	}
	if err := r.open(); err != nil {
		return err
	}
	defer func() {
		if r.store != nil && !r.crashed() {
			r.store.Close()
		}
	}()
	for i, op := range ops {
		if r.done {
			break
		}
		r.acked = i
		model, lsn := r.model, r.lsn
		err := r.do(i, op)
		if r.crashed() {
			// Recovery judges the step in flight; the run keeps the state
			// the acknowledged steps left.
			r.model, r.lsn = model, lsn
			return nil
		}
		if err != nil {
			return fmt.Errorf("step %d (%s): %w", i, op.Kind, err)
		}
		if r.fault == "gc" {
			runtime.GC()
		}
	}
	r.acked = len(ops)
	if r.strict && r.fault == "ioerr" && !r.injected {
		return fmt.Errorf("ioerr: no %s of %s failed from step %d on", r.ioFault.Op, r.ioFault.Name, r.ioStep)
	}
	if r.degraded {
		// Recovery must leave a store that checkpoints again.
		if err := r.reopen(false, ""); err != nil {
			return err
		}
		return r.checkpoint(len(ops))
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

// options are what an open asks for: once a checkpoint has recorded the
// encoding, options that it must ignore.
func (r *modelRun) options() Options {
	if r.checkpointed {
		return Options{Encoding: Local, Gap: 3, BufferPoolFrames: r.cfg.opts.BufferPoolFrames}
	}
	return r.cfg.opts
}

func (r *modelRun) open() error {
	var err error
	if r.cfg.durable {
		r.store, err = openDurable(r.fsys(), r.dir, r.options())
	} else {
		r.store, err = Open(r.cfg.opts)
	}
	if err != nil {
		return fmt.Errorf("open: %w", err)
	}
	r.lists, r.appends, r.rotations = map[DocID]map[string]listed{}, 0, 0
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

// inject arms the ioerr plug-in's fault for the call at step i, until it
// has fired. The returned disarm reports whether it fired.
func (r *modelRun) inject(i int) (disarm func() bool) {
	if r.fault != "ioerr" || r.injected || r.degraded || i < r.ioStep {
		return func() bool { return false }
	}
	r.disk.Arm(r.ioFault)
	return func() bool {
		r.injected = r.disk.Fired()
		r.disk.Arm(vfstest.Fault{})
		return r.injected
	}
}

// degrade handles a call during which the injected fault fired: the call's
// error, if any, must be the injected one, or ErrReadOnly when an earlier
// write of the call failed, and the store must be degraded by it.
func (r *modelRun) degrade(err error) error {
	ok, cause := r.store.Degraded()
	if !ok || !strings.Contains(cause, r.ioFault.Err.Error()) {
		return fmt.Errorf("store not degraded by the failed %s of %s (%q) after %v", r.ioFault.Op, r.ioFault.Name, cause, err)
	}
	if err != nil && !errors.Is(err, r.ioFault.Err) && !errors.Is(err, ErrReadOnly) {
		return fmt.Errorf("injected %v reported as %v", r.ioFault.Err, err)
	}
	r.degraded = true
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
	disarm := func() bool { return false }
	if want == nil {
		disarm = r.inject(i)
	}
	rep, err := r.call(ctx, op, doc, node, target)
	fired := disarm()
	clear(r.lists)
	switch {
	case r.degraded:
		if !errors.Is(err, ErrReadOnly) {
			return fmt.Errorf("mutation on a degraded store: %v, want ErrReadOnly", err)
		}
		return r.check()
	case err != nil && r.canceled(err):
		return r.check()
	case fired && err == nil:
		// The record was durable; a page write of the apply failed.
		r.model = next
		r.logged()
		return r.degrade(err)
	case fired:
		// A failed fsync keeps the record from the disk, not from reads: a
		// reopen without a power cut may replay it.
		r.alt = next
		return r.degrade(err)
	case (err == nil) != (want == nil):
		return fmt.Errorf("store error %v, oracle %v", err, want)
	case want != nil && want != errInvalid && !errors.Is(err, want):
		return fmt.Errorf("store error %v, want %v", err, want)
	case want != nil:
		if r.cfg.durable {
			r.failedLogged++
			r.logged()
		}
		return r.check()
	}
	if r.cfg.durable {
		r.logged()
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
	disarm := r.inject(i)
	err := r.store.Checkpoint()
	fired := disarm()
	switch {
	case r.degraded:
		if !errors.Is(err, ErrReadOnly) {
			return fmt.Errorf("checkpoint of a degraded store: %v, want ErrReadOnly", err)
		}
		return r.check()
	case fired:
		if err == nil {
			return fmt.Errorf("checkpoint returned nil through a failed %s of %s", r.ioFault.Op, r.ioFault.Name)
		}
		r.ckptFailed = true
		return r.degrade(err)
	case err != nil:
		return fmt.Errorf("checkpoint: %w", err)
	}
	r.checkpointed, r.sinceCkpt, r.failedLogged = true, 0, 0
	r.rotations++
	return r.intact()
}

// reopen closes the store — or, for abandon, drops it without Close as a
// process exit would — and opens its directory again; on the simulated disk
// a Close is followed by a power cut. With lose set, that file is removed
// first and the open must fail naming it.
func (r *modelRun) reopen(abandon bool, lose string) error {
	if !r.cfg.durable {
		return r.intact()
	}
	if abandon {
		r.store = nil
		runtime.GC()
	} else if err := r.store.Close(); err != nil && !r.degraded {
		return fmt.Errorf("close: %w", err)
	} else if r.disk != nil {
		r.disk.PowerCut()
	}
	if lose != "" {
		r.store, r.done = nil, true
		if err := r.fsys().Remove(filepath.Join(r.dir, lose)); err != nil {
			return err
		}
		s, err := openDurable(r.fsys(), r.dir, r.cfg.opts)
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
	if err := r.listing(r.ckptFailed); err != nil {
		return err
	}
	if r.alt != nil && r.check() != nil {
		r.model = r.alt
		r.logged()
	}
	r.degraded, r.alt, r.appends = false, nil, 0
	m := r.store.Metrics().Counters
	replayed, failed := int(m["wal.replay.records"]), int(m["wal.replay.op_errors"])
	if r.ckptFailed {
		// A checkpoint that failed once its manifest was durable holds the
		// records before it.
		r.sinceCkpt, r.failedLogged = min(r.sinceCkpt, replayed), min(r.failedLogged, failed)
		r.ckptFailed, r.checkpointed = false, r.checkpointed || slices.Contains(r.files(), metaFile)
	}
	if replayed != r.sinceCkpt || failed != r.failedLogged {
		return fmt.Errorf("replayed %d records, %d failing, the session logged %d, %d failing, since the checkpoint",
			replayed, failed, r.sinceCkpt, r.failedLogged)
	}
	return r.intact()
}

// logged counts a record the session appended to the log.
func (r *modelRun) logged() { r.lsn, r.appends, r.sinceCkpt = r.lsn+1, r.appends+1, r.sinceCkpt+1 }

// files lists the store directory.
func (r *modelRun) files() []string {
	if r.disk != nil {
		return r.disk.List(r.dir)
	}
	entries, err := os.ReadDir(r.dir)
	if err != nil {
		return []string{err.Error()}
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	return names
}

// listing checks that the store directory holds the page file, the log and,
// once a checkpoint has installed it, the manifest: no temporary file a
// crash left. maybeMeta allows a manifest that a checkpoint which failed or
// crashed may have installed.
func (r *modelRun) listing(maybeMeta bool) error {
	want := "pages.db wal.log"
	if r.checkpointed {
		want = "meta.db pages.db wal.log"
	}
	got := strings.Join(r.files(), " ")
	if got != want && !(maybeMeta && got == "meta.db "+want) {
		return fmt.Errorf("store directory holds %q, want %q", got, want)
	}
	return nil
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
		m := r.store.Metrics()
		if lag := m.Gauges["wal.durable_lag"]; lag != 0 {
			return fmt.Errorf("%d acknowledged log records not durable", lag)
		}
		if lsn := m.Gauges["wal.last_lsn"]; lsn != r.lsn {
			return fmt.Errorf("durable LSN %d, the session logged %d operations", lsn, r.lsn)
		}
		if n := m.Counters["wal.appends"]; n != r.appends {
			return fmt.Errorf("%d log appends since the open, the session logged %d", n, r.appends)
		}
		if n := m.Counters["wal.rotations"]; n != r.rotations {
			return fmt.Errorf("%d log rotations since the open, the session checkpointed %d times", n, r.rotations)
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

// crashRounds are the crash plug-in's rounds on each configuration, each
// at a crash point sampled by seed; "replay" crashes recovery a second time.
var crashRounds = []string{"round=1", "round=2", "replay"}

// TestModel runs generated sessions on every configuration under every
// fault plug-in, one subtest per seed, or per crash round under crash, where
// dewey/durable adds a round with snapshot readers in flight.
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
						// The rounds' crash points are drawn from the syncs
						// of one uncrashed run.
						syncs := 0
						t.Run("uncrashed", func(t *testing.T) {
							runOrShrink(t, cfg.name+" uncrashed", seed, ops, func(cand []modelOp) error {
								r := newModelRun(cfg, "none", "", seed, len(cand))
								err := r.session(cand)
								if len(cand) == n {
									syncs = r.disk.Calls("sync")
								}
								return err
							})
						})
						rounds := crashRounds
						if cfg.name == "dewey/durable" {
							rounds = append(rounds, "readers")
						}
						for ri, round := range rounds {
							t.Run(round, func(t *testing.T) {
								seed := 10*seed + int64(ri)
								runOrShrink(t, cfg.name+" crash "+round, seed, ops, func(cand []modelOp) error {
									if len(cand) == n {
										return crashRound(cfg, round, seed, cand, syncs)
									}
									return crashRound(cfg, round, seed, cand, 0)
								})
							})
						}
					}
				})
			}
		})
	}
}

// parallel runs a configuration's sessions alongside the others of its
// plug-in, except under gc, whose collector setting belongs to the whole
// process.
func parallel(t *testing.T, fault string) {
	if fault != "gc" {
		t.Parallel()
	}
}

// sessionRun runs a session of ops on a fresh store, on the simulated disk
// under ioerr; a session of full ops is strict: its fault plug-in must fire.
func sessionRun(t *testing.T, cfg modelConfig, fault string, seed int64, full int) func([]modelOp) error {
	return func(ops []modelOp) error {
		dir := ""
		if fault != "ioerr" {
			dir = t.TempDir()
		}
		r := newModelRun(cfg, fault, dir, seed, len(ops))
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

// crashRound runs ops on a simulated disk that crashes before a sync chosen
// by seed among the syncs an uncrashed run of ops makes (counted here when
// zero), with snapshot readers in flight in the readers round. The store is
// abandoned, and each of three images of the disk must recover to the
// oracle after the acknowledged ops, or after those and the one in flight:
// what was synced alone, that with every pending create and rename, and a
// seeded prefix of everything pending. In the replay round recovery from the
// last image crashes too, and the image it leaves must recover the same way.
// The session must reach the crash.
func crashRound(cfg modelConfig, round string, seed int64, ops []modelOp, syncs int) error {
	if syncs == 0 {
		dry := newModelRun(cfg, "none", "", seed, len(ops))
		if err := dry.session(ops); err != nil {
			return fmt.Errorf("uncrashed: %w", err)
		}
		syncs = dry.disk.Calls("sync")
	}
	rng := rand.New(rand.NewSource(seed))
	k := 1 + rng.Intn(syncs)
	r := newModelRun(cfg, "crash", "", seed, len(ops))
	r.disk.Arm(vfstest.Fault{Op: "sync", N: k})
	stop := func() {}
	if round == "readers" {
		stop = readWhileRunning(r, 3)
	}
	err := r.session(ops)
	stop()
	if err != nil {
		return err
	}
	if !r.crashed() {
		return fmt.Errorf("the session ran to its end without reaching sync %d of %d", k, syncs)
	}
	for _, keep := range []vfstest.Keep{vfstest.Synced, vfstest.Names, vfstest.Prefixes} {
		img := r.disk.Image(keep, rng)
		if round == "replay" && keep == vfstest.Prefixes {
			img = r.crashRecovery(img, rng)
		}
		if err := r.recovered(img, ops); err != nil {
			return fmt.Errorf("crash before sync %d in step %d, image %d: %w", k, r.acked, keep, err)
		}
	}
	return nil
}

// crashRecovery recovers from img on a disk that crashes before a sync
// chosen among those recovery makes, or just after recovery, and returns
// what that crash leaves on disk.
func (r *modelRun) crashRecovery(img *vfstest.FS, rng *rand.Rand) *vfstest.FS {
	dry := img.Image(vfstest.Synced, nil)
	s, err := openDurable(dry, r.dir, r.options())
	syncs := dry.Calls("sync")
	if err == nil {
		s.Close()
	}
	img.Arm(vfstest.Fault{Op: "sync", N: 1 + rng.Intn(syncs+1)})
	if s, err := openDurable(img, r.dir, r.options()); err == nil && !img.Crashed() {
		defer s.Close()
	}
	return img.Image(vfstest.Prefixes, rng)
}

// recovered opens the store on img and checks it against the oracle after
// the acknowledged ops, or after those and the one in flight.
func (r *modelRun) recovered(img *vfstest.FS, ops []modelOp) error {
	c := &modelRun{cfg: r.cfg, fault: "none", dir: r.dir, disk: img, model: r.model,
		checkpointed: r.checkpointed, lsn: r.lsn}
	if err := c.open(); err != nil {
		return fmt.Errorf("recovery: %w", err)
	}
	defer c.store.Close()
	var inflight modelOp
	if r.acked < len(ops) {
		inflight = ops[r.acked]
	}
	if err := c.listing(inflight.Kind == "checkpoint"); err != nil {
		return err
	}
	if problems, err := c.store.CheckIntegrity(); err != nil || len(problems) > 0 {
		return fmt.Errorf("integrity after recovery: %v %v", err, problems)
	}
	err := c.check()
	if err != nil && !slices.Contains([]string{"", "query", "checkpoint", "reopen", "abandon"}, inflight.Kind) {
		// The operation in flight reached the log: its effect, or its
		// failure, replayed.
		after := r.model.clone()
		if _, werr := after.apply(inflight); werr != errSkip {
			c.model, c.lsn = after, r.lsn+1
			clear(c.lists)
			if c.check() == nil {
				err = nil
			}
		}
	}
	if err != nil {
		return fmt.Errorf("recovered state is neither that of the acknowledged ops nor that with the op in flight: %w", err)
	}
	return c.query(modelOp{Kind: "query", Value: "//*"})
}

// readWhileRunning races n snapshot readers against r's session, so that a
// crash lands with reads in flight. What they read is not checked (a
// document may vanish under them); what recovery finds is. It returns the
// stop.
func readWhileRunning(r *modelRun, n int) (stop func()) {
	var cur atomic.Pointer[Store]
	var done atomic.Bool
	var wg sync.WaitGroup
	r.opened = func(s *Store) { cur.Store(s) }
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !done.Load() {
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
	return func() {
		done.Store(true)
		wg.Wait()
	}
}

package lint

// laneguard is an intraprocedural provenance analysis for the lane
// (node) affinity contract of the sharded kernel (internal/sim Phase P):
// an engine handler dispatched at node n may touch n's own cache lines,
// the home-resident directory/gate state of the block it was dispatched
// for, and the synchronized surfaces of the Machine façade (Txn slots,
// the Store, Send, CtrAt) — and nothing else, unless the access is
// routed through a cross-lane-safe scheduling call (ScheduleAt on the
// target node, DeferAt from the entry lane to the target lane,
// ScheduleGlobal, GlobalOpAt).
//
// The analysis tracks where node indices COME FROM (the dataflow lattice
// in dataflow.go): the handler's own dispatch parameters stay canonical
// symbolic paths ("msg.Dst", "txn.Node", "home(msg.Block)"); indices
// read from directory entries, chain pointers in line metadata, sharer
// sets, or message payloads become Foreign with a provenance reason.
// Residency checks then fire at the sinks:
//
//	R1  m.Nodes[i] indexing (and range over m.Nodes) — i must be
//	    lane-resident;
//	R2  m.Invalidate(i, b) / m.ReplaceBlock(i, b) — i must be
//	    lane-resident;
//	R3  a chain-link store into a foreign line: mutating a NodeID field
//	    of a line-metadata value whose line does not belong to this
//	    handler's lane (message-carried indices stored into the
//	    handler's OWN line are plain data — cross-lane readers go
//	    through the home-resident accessors, not the line);
//	R4  engine-global map fields on the engine receiver (shared across
//	    lanes by construction), and per-lane engine slice fields
//	    (e.tombs[i]) indexed by a non-resident node; a struct embedded
//	    in an engine is that engine's state, so its fields count too;
//	R5  m.ReleaseHome(b) / m.SerializeWrite(msg) / m.Dir(b) /
//	    m.SetDir(b, v) — the block must be home-resident in this
//	    handler context;
//	R6  m.Ctr mutation anywhere in the package: a direct write, an
//	    &m.Ctr alias, or a pointer-receiver method call through Ctr
//	    (handlers count through the per-lane sink m.CtrAt).
//
// Entry contexts follow the Engine interface contract: StartMiss runs at
// txn.Node; HomeRequest/HomeMsg run at the home (msg.Dst == home of
// msg.Block); CacheMsg runs at msg.Dst; OnEvict runs at n. Helper
// functions are summarized: a residency requirement on a parameter-
// rooted path is propagated to call sites instead of reported, through a
// fixpoint so helper→helper chains resolve. R6 is a plain syntactic
// walk over every file of the package: the counters are shared by every
// lane, so no context makes a write to them safe.
//
// A package is gated when it declares an engine: a type with all five
// handler methods, its own or promoted from an embedded struct. Every
// engine can run on the sharded kernel, so every engine package must
// certify clean.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// LaneGuard is the gating analyzer: packages that declare an engine
// must have zero cross-lane touch points.
var LaneGuard = &Analyzer{
	Name: "laneguard",
	Doc:  "engine handlers must not touch another lane's state outside the scheduling façade",
	Run:  runLaneGuard,
}

const coherentPath = "dircc/internal/coherent"

func runLaneGuard(p *Pass) {
	if p.Pkg.Path() == coherentPath {
		return // the machine façade itself owns cross-lane plumbing
	}
	la := newLaneAnalysis(p.Fset, p.Files, p.Pkg, p.Info)
	if len(la.engines) == 0 {
		return // no engine, nothing runs on a lane
	}
	for _, f := range la.run() {
		p.Reportf(f.pos, "%s", f.msg)
	}
	checkCtr(p)
}

// ---------------------------------------------------------------------------
// analysis state

var handlerNames = map[string]bool{
	"StartMiss": true, "HomeRequest": true, "HomeMsg": true,
	"CacheMsg": true, "OnEvict": true,
}

// Machine façade methods that are safe with any argument: they either
// read immutable configuration, touch a synchronized surface (Txn slots,
// the Store, message transport), or route the work to the right lane
// themselves.
var safeMachineMethods = map[string]bool{
	"Send": true, "Txn": true, "DeferToTxn": true, "CompleteTxn": true,
	"CtrAt": true, "Home": true, "Now": true, "BlockOf": true,
	"Alloc": true, "Tracing": true, "TraceDir": true, "TraceState": true,
	"RunKernel": true, "Quiesce": true, "Outstanding": true,
	"Protocol": true, "Shards": true,
	// scheduling façade: argument closures are re-based to the target
	// lane (handled in checkCall).
	"ScheduleAt": true, "ScheduleGlobal": true, "GlobalOpAt": true,
	"DeferAt": true,
	// a memory reply fires, sends and releases the gate on the lane of
	// its block's home.
	"ReplyFromMemory": true,
}

type laneFinding struct {
	engine string
	pos    token.Pos
	msg    string
}

type laneReqKind int

const (
	reqLane laneReqKind = iota // path must resolve to a lane-resident node index
	reqHome                    // path must resolve to a home-resident block
)

type laneReq struct {
	kind laneReqKind
	path string // canonical path rooted at a parameter name
	what string // human description of the access the callee performs
}

type funcSummary struct {
	decl   *ast.FuncDecl
	params []string // flat parameter names, positional
	reqs   []laneReq
}

type laneAnalysis struct {
	fset *token.FileSet
	pkg  *types.Package
	info *types.Info

	// engines maps engine type name -> handler method decls.
	engines map[string]map[string]*ast.FuncDecl
	// state names the types whose fields are engine state (R4): the
	// engines and the structs embedded in them.
	state map[string]bool
	// summaries for every non-handler package function/method.
	summaries map[*types.Func]*funcSummary
	declOf    map[*types.Func]*ast.FuncDecl
	objOf     map[*ast.FuncDecl]*types.Func
	// metaTypes are line-metadata structs (assigned to cache.Line.Meta
	// or passed as the CompleteTxn meta argument).
	metaTypes map[*types.Named]bool

	findings []laneFinding
	seen     map[string]bool
}

func newLaneAnalysis(fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info) *laneAnalysis {
	la := &laneAnalysis{
		fset:      fset,
		pkg:       pkg,
		info:      info,
		engines:   map[string]map[string]*ast.FuncDecl{},
		state:     map[string]bool{},
		summaries: map[*types.Func]*funcSummary{},
		declOf:    map[*types.Func]*ast.FuncDecl{},
		objOf:     map[*ast.FuncDecl]*types.Func{},
		metaTypes: map[*types.Named]bool{},
		seen:      map[string]bool{},
	}
	byType := map[string]map[string]*ast.FuncDecl{}
	for _, f := range files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, _ := info.Defs[fd.Name].(*types.Func)
			if obj == nil {
				continue
			}
			la.declOf[obj] = fd
			la.objOf[fd] = obj
			if fd.Recv != nil && len(fd.Recv.List) == 1 {
				tn := recvTypeName(fd.Recv.List[0].Type)
				if tn != "" {
					if byType[tn] == nil {
						byType[tn] = map[string]*ast.FuncDecl{}
					}
					byType[tn][fd.Name.Name] = fd
				}
			}
		}
		la.collectMetaTypes(f)
	}
	for tn, own := range byType {
		// Methods promoted from embedded structs count unless shadowed.
		methods := map[string]*ast.FuncDecl{}
		embedded := la.embeddedIn(tn)
		for _, et := range embedded {
			for name, fd := range byType[et] {
				methods[name] = fd
			}
		}
		for name, fd := range own {
			methods[name] = fd
		}
		all := true
		for h := range handlerNames {
			if methods[h] == nil {
				all = false
				break
			}
		}
		if all {
			la.engines[tn] = methods
			la.state[tn] = true
			for _, et := range embedded {
				la.state[et] = true
			}
		}
	}
	return la
}

// embeddedIn returns the names of the package's named types embedded in
// the struct type tn.
func (la *laneAnalysis) embeddedIn(tn string) []string {
	obj, _ := la.pkg.Scope().Lookup(tn).(*types.TypeName)
	if obj == nil {
		return nil
	}
	st, ok := obj.Type().Underlying().(*types.Struct)
	if !ok {
		return nil
	}
	var out []string
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		t := f.Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if n, ok := t.(*types.Named); ok && f.Embedded() && n.Obj().Pkg() == la.pkg {
			out = append(out, n.Obj().Name())
		}
	}
	return out
}

func recvTypeName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return recvTypeName(e.X)
	case *ast.Ident:
		return e.Name
	case *ast.IndexExpr: // generic receiver, not used by engines
		return recvTypeName(e.X)
	}
	return ""
}

func (la *laneAnalysis) engineNames() []string {
	var names []string
	for n := range la.engines {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// collectMetaTypes records named struct types used as per-line protocol
// metadata: targets of `ln.Meta.(*T)` assertions, values assigned to a
// `.Meta` field, and the 4th argument of CompleteTxn.
func (la *laneAnalysis) collectMetaTypes(f *ast.File) {
	addType := func(t types.Type) {
		for {
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
				continue
			}
			break
		}
		if n, ok := t.(*types.Named); ok {
			if _, isStruct := n.Underlying().(*types.Struct); isStruct {
				la.metaTypes[n] = true
			}
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.TypeAssertExpr:
			if sel, ok := n.X.(*ast.SelectorExpr); ok && sel.Sel.Name == "Meta" && n.Type != nil {
				if tv, ok := la.info.Types[n.Type]; ok {
					addType(tv.Type)
				}
			}
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				if sel, ok := lhs.(*ast.SelectorExpr); ok && sel.Sel.Name == "Meta" && i < len(n.Rhs) {
					if tv, ok := la.info.Types[n.Rhs[i]]; ok {
						addType(tv.Type)
					}
				}
			}
		case *ast.CallExpr:
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "CompleteTxn" && len(n.Args) == 4 {
				if isMachine(la.typeOf(sel.X)) {
					if tv, ok := la.info.Types[n.Args[3]]; ok {
						addType(tv.Type)
					}
				}
			}
		}
		return true
	})
}

// run performs the two-phase analysis and returns deduplicated,
// position-sorted findings.
func (la *laneAnalysis) run() []laneFinding {
	// Phase 1: helper summaries to fixpoint. Requirements only ever
	// grow, so iterate until stable (helper→helper chains are short).
	var helperObjs []*types.Func
	for obj, decl := range la.declOf {
		if la.isHandlerDecl(decl) {
			continue
		}
		la.summaries[obj] = &funcSummary{decl: decl, params: paramNames(decl)}
		helperObjs = append(helperObjs, obj)
	}
	sort.Slice(helperObjs, func(i, j int) bool {
		return la.declOf[helperObjs[i]].Pos() < la.declOf[helperObjs[j]].Pos()
	})
	for iter := 0; iter < 10; iter++ {
		changed := false
		for _, obj := range helperObjs {
			s := la.summaries[obj]
			before := reqKey(s.reqs)
			fa := la.newFuncAnalysis(s.decl, nil, nil, true, s, "")
			fa.analyze()
			if reqKey(s.reqs) != before {
				changed = true
			}
		}
		if !changed {
			break
		}
	}

	// Phase 2: handlers under their entry contexts, per engine; then
	// unconditional findings from reachable helpers.
	for _, eng := range la.engineNames() {
		methods := la.engines[eng]
		for _, h := range []string{"StartMiss", "HomeRequest", "HomeMsg", "CacheMsg", "OnEvict"} {
			decl := methods[h]
			R, HB := entryContext(h, decl)
			fa := la.newFuncAnalysis(decl, R, HB, false, nil, eng)
			fa.analyze()
		}
		for _, obj := range la.reachableHelpers(methods) {
			// Keep the (fixpoint-stable) summary attached: parameter-
			// rooted failures stay call-site requirements, only
			// unconditional violations are reported here.
			s := la.summaries[obj]
			fa := la.newFuncAnalysis(s.decl, nil, nil, true, s, eng)
			fa.analyze()
		}
	}
	sort.Slice(la.findings, func(i, j int) bool {
		if la.findings[i].engine != la.findings[j].engine {
			return la.findings[i].engine < la.findings[j].engine
		}
		return la.findings[i].pos < la.findings[j].pos
	})
	return la.findings
}

func (la *laneAnalysis) isHandlerDecl(decl *ast.FuncDecl) bool {
	if decl.Recv == nil || !handlerNames[decl.Name.Name] {
		return false
	}
	methods, ok := la.engines[recvTypeName(decl.Recv.List[0].Type)]
	return ok && methods[decl.Name.Name] == decl
}

// reachableHelpers walks the package-local call graph from the engine's
// five handlers and returns the reachable non-handler functions in
// declaration order.
func (la *laneAnalysis) reachableHelpers(methods map[string]*ast.FuncDecl) []*types.Func {
	seen := map[*types.Func]bool{}
	var queue []*ast.FuncDecl
	for _, h := range []string{"StartMiss", "HomeRequest", "HomeMsg", "CacheMsg", "OnEvict"} {
		queue = append(queue, methods[h])
	}
	var out []*types.Func
	for len(queue) > 0 {
		decl := queue[0]
		queue = queue[1:]
		ast.Inspect(decl, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := la.calleeFunc(call)
			if callee == nil || seen[callee] {
				return true
			}
			d := la.declOf[callee]
			if d == nil || la.isHandlerDecl(d) {
				return true
			}
			seen[callee] = true
			out = append(out, callee)
			queue = append(queue, d)
			return true
		})
	}
	sort.Slice(out, func(i, j int) bool {
		return la.declOf[out[i]].Pos() < la.declOf[out[j]].Pos()
	})
	return out
}

func (la *laneAnalysis) calleeFunc(call *ast.CallExpr) *types.Func {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		if f, ok := la.info.Uses[fun].(*types.Func); ok && f.Pkg() == la.pkg {
			return f
		}
	case *ast.SelectorExpr:
		if f, ok := la.info.Uses[fun.Sel].(*types.Func); ok && f.Pkg() == la.pkg {
			return f
		}
	}
	return nil
}

func (la *laneAnalysis) typeOf(e ast.Expr) types.Type {
	if tv, ok := la.info.Types[e]; ok {
		return tv.Type
	}
	return nil
}

func (la *laneAnalysis) report(engine string, pos token.Pos, format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	key := fmt.Sprintf("%s|%d|%s", engine, pos, msg)
	if la.seen[key] {
		return
	}
	la.seen[key] = true
	la.findings = append(la.findings, laneFinding{engine: engine, pos: pos, msg: msg})
}

func paramNames(decl *ast.FuncDecl) []string {
	var out []string
	if decl.Type.Params == nil {
		return out
	}
	for _, fld := range decl.Type.Params.List {
		for _, n := range fld.Names {
			out = append(out, n.Name)
		}
	}
	return out
}

func reqKey(reqs []laneReq) string {
	keys := make([]string, len(reqs))
	for i, r := range reqs {
		keys[i] = fmt.Sprintf("%d:%s", r.kind, r.path)
	}
	sort.Strings(keys)
	return strings.Join(keys, ";")
}

// entryContext returns the lane-resident node paths (R) and
// home-resident block paths (HB) for a handler, in terms of its actual
// parameter names.
func entryContext(handler string, decl *ast.FuncDecl) (R, HB map[string]bool) {
	names := paramNames(decl)
	R, HB = map[string]bool{}, map[string]bool{}
	get := func(i int) string {
		if i < len(names) {
			return names[i]
		}
		return "_"
	}
	switch handler {
	case "StartMiss": // (m, txn): runs at the requesting node
		R[get(1)+".Node"] = true
	case "HomeRequest", "HomeMsg": // (m, msg): runs at home == msg.Dst
		R[get(1)+".Dst"] = true
		R["home("+get(1)+".Block)"] = true
		HB[get(1)+".Block"] = true
	case "CacheMsg": // (m, msg): runs at msg.Dst
		R[get(1)+".Dst"] = true
	case "OnEvict": // (m, n, ln): runs at n
		R[get(1)] = true
	}
	return R, HB
}

// ---------------------------------------------------------------------------
// per-function analysis

type funcAnalysis struct {
	la   *laneAnalysis
	decl *ast.FuncDecl
	R    map[string]bool // lane-resident node-index canon paths
	HB   map[string]bool // home-resident block canon paths

	// summary mode: a failing check on a parameter-rooted path becomes
	// a requirement on sum instead of a finding.
	summary bool
	sum     *funcSummary

	engine string // attribution for findings ("" while summarizing)

	// rebased marks closure bodies re-homed by the scheduling façade:
	// inside them, parameter-rooted failures are real findings even in
	// summary mode (the caller's lane no longer applies).
	rebased bool

	// reported R4 fields, one finding per (function, field).
	mapFields map[string]bool

	universal bool // ScheduleGlobal / GlobalOpAt bodies: every lane is resident
}

func (la *laneAnalysis) newFuncAnalysis(decl *ast.FuncDecl, R, HB map[string]bool, summary bool, sum *funcSummary, engine string) *funcAnalysis {
	if R == nil {
		R = map[string]bool{}
	}
	if HB == nil {
		HB = map[string]bool{}
	}
	return &funcAnalysis{
		la: la, decl: decl, R: R, HB: HB,
		summary: summary, sum: sum, engine: engine,
		mapFields: map[string]bool{},
	}
}

func (fa *funcAnalysis) analyze() {
	e := env{}
	seed := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, fld := range fl.List {
			for _, name := range fld.Names {
				obj := fa.la.info.Defs[name]
				if obj == nil || isMachine(obj.Type()) {
					continue
				}
				e[obj] = canonVal(name.Name)
			}
		}
	}
	seed(fa.decl.Type.Params)
	fa.analyzeBody(fa.decl.Body, e)
}

func (fa *funcAnalysis) analyzeBody(body *ast.BlockStmt, entry env) {
	cfg := buildCFG(body)
	forward(cfg, entry, fa.transfer)
}

func (fa *funcAnalysis) funcName() string {
	if fa.decl.Recv != nil {
		return recvTypeName(fa.decl.Recv.List[0].Type) + "." + fa.decl.Name.Name
	}
	return fa.decl.Name.Name
}

func (fa *funcAnalysis) reportf(pos token.Pos, format string, args ...any) {
	fa.la.report(fa.engine, pos, format, args...)
}

// failResidency handles a failed residency check on value v at pos.
// what describes the access for diagnostics.
func (fa *funcAnalysis) failResidency(pos token.Pos, kind laneReqKind, v value, what string) {
	if fa.universal {
		return
	}
	if fa.summary && !fa.rebased && fa.sum != nil {
		if v.kind == vCanon {
			if root := pathRoot(v.path); root != "" && contains(fa.sum.params, root) {
				fa.addReq(laneReq{kind: kind, path: v.path, what: what})
				return
			}
		}
	}
	if fa.summary && fa.sum != nil {
		// Summarizing pass records requirements only; unconditional
		// findings are reported in phase 2 (engine != "").
		if fa.engine == "" {
			return
		}
	}
	switch kind {
	case reqLane:
		fa.reportf(pos, "%s: %s is not resident in this handler's lane; route it through m.ScheduleAt/m.GlobalOpAt", what, describeVal(v))
	case reqHome:
		fa.reportf(pos, "%s: %s is not home-resident in this handler context", what, describeVal(v))
	}
}

func (fa *funcAnalysis) addReq(r laneReq) {
	for _, have := range fa.sum.reqs {
		if have.kind == r.kind && have.path == r.path {
			return
		}
	}
	fa.sum.reqs = append(fa.sum.reqs, r)
}

// describeVal renders a provenance value for a diagnostic.
func describeVal(v value) string {
	switch v.kind {
	case vCanon:
		if why := canonWhy(v.path); why != "" {
			return fmt.Sprintf("node index %s (%s)", v.path, why)
		}
		return v.path
	case vForeign:
		return v.why
	case vConst:
		return "constant index"
	default:
		return "untracked value"
	}
}

// canonWhy classifies still-canonical but non-resident paths.
func canonWhy(path string) string {
	for _, suf := range []string{".Src", ".Requester", ".Aux", ".AckTo"} {
		if strings.HasSuffix(path, suf) {
			return "message-carried"
		}
	}
	if strings.Contains(path, ".Ptrs") {
		return "message-carried pointer list"
	}
	return ""
}

func pathRoot(path string) string {
	for _, pre := range []string{"home(", "nodeof(", "txn(", "lineof("} {
		if strings.HasPrefix(path, pre) {
			path = path[len(pre):]
		}
	}
	for i := 0; i < len(path); i++ {
		switch path[i] {
		case '.', '(', ')', ';', '[':
			return path[:i]
		}
	}
	return path
}

func contains(ss []string, s string) bool {
	for _, x := range ss {
		if x == s {
			return true
		}
	}
	return false
}

// resident reports whether value v satisfies a residency requirement of
// the given kind in this function's context.
func (fa *funcAnalysis) resident(kind laneReqKind, v value) bool {
	if fa.universal {
		return true
	}
	switch v.kind {
	case vConst, vBottom:
		return true // sentinel (NoNode) or untaken path
	case vForeign:
		return false
	}
	if kind == reqLane {
		// Freshly constructed metadata belongs to this lane.
		if v.path == "@fresh" {
			return true
		}
		// A line handle (or metadata reached through one) is resident
		// exactly when the node that owns the line is; a node handle
		// (nodeof(i)) is resident exactly when i is.
		if inner, ok := lineInner(v.path); ok {
			return fa.resident(reqLane, canonVal(inner))
		}
		if inner, ok := cutWrap(v.path, "nodeof("); ok {
			return fa.resident(reqLane, canonVal(inner))
		}
	}
	set := fa.R
	if kind == reqHome {
		set = fa.HB
	}
	if set[v.path] {
		return true
	}
	// A node resident as home(X) also satisfies lane-residency checks
	// phrased the other way around.
	if kind == reqLane && set["home("+v.path+")"] {
		return true
	}
	return false
}

// ---------------------------------------------------------------------------
// transfer function

func (fa *funcAnalysis) transfer(n ast.Node, e env, check bool) {
	switch n := n.(type) {
	case *ast.AssignStmt:
		if check {
			for _, rhs := range n.Rhs {
				fa.checkExpr(rhs, e)
			}
			for _, lhs := range n.Lhs {
				fa.checkWrite(lhs, n.Rhs, e)
			}
		}
		fa.assign(n, e)
	case *ast.IncDecStmt:
		if check {
			fa.checkWrite(n.X, nil, e)
			fa.checkExpr(n.X, e)
		}
		if id, ok := n.X.(*ast.Ident); ok {
			if obj := fa.la.info.ObjectOf(id); obj != nil {
				e[obj] = foreignVal("computed index")
			}
		}
	case *ast.DeclStmt:
		gd, ok := n.Decl.(*ast.GenDecl)
		if !ok {
			return
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			for i, name := range vs.Names {
				obj := fa.la.info.Defs[name]
				if obj == nil {
					continue
				}
				if i < len(vs.Values) {
					if check {
						fa.checkExpr(vs.Values[i], e)
					}
					e[obj] = fa.canonOf(vs.Values[i], e)
				} else {
					e[obj] = constVal // zero value
				}
			}
		}
	case *ast.RangeStmt:
		fa.rangeStmt(n, e, check)
	case *ast.ReturnStmt:
		if check {
			for _, r := range n.Results {
				fa.checkExpr(r, e)
			}
		}
	case *ast.ExprStmt:
		if check {
			fa.checkExpr(n.X, e)
		}
	case *ast.GoStmt:
		if check {
			fa.checkExpr(n.Call, e)
		}
	case *ast.DeferStmt:
		if check {
			fa.checkExpr(n.Call, e)
		}
	case *ast.SendStmt:
		if check {
			fa.checkExpr(n.Chan, e)
			fa.checkExpr(n.Value, e)
		}
	case ast.Expr:
		// Hoisted condition/tag expressions from if/for/switch heads.
		if check {
			fa.checkExpr(n, e)
		}
	}
}

func (fa *funcAnalysis) assign(n *ast.AssignStmt, e env) {
	// Multi-assign from a single call (e.g. ln, ok := ...): values
	// untracked unless 1:1.
	if len(n.Lhs) == len(n.Rhs) {
		for i, lhs := range n.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok {
				continue
			}
			obj := fa.la.info.ObjectOf(id)
			if obj == nil {
				continue
			}
			e[obj] = fa.canonOf(n.Rhs[i], e)
		}
		return
	}
	// v, ok := m[k] / x.(*T) / f(): give the first variable the
	// provenance of the right-hand expression; comma-ok bools are
	// constants for our purposes.
	var rhsVal value = foreignVal("derived from multi-value assignment")
	if len(n.Rhs) == 1 {
		rhsVal = fa.canonOf(n.Rhs[0], e)
	}
	for i, lhs := range n.Lhs {
		id, ok := lhs.(*ast.Ident)
		if !ok {
			continue
		}
		obj := fa.la.info.ObjectOf(id)
		if obj == nil {
			continue
		}
		switch {
		case isBoolType(obj.Type()):
			e[obj] = constVal
		case i == 0:
			e[obj] = rhsVal
		default:
			e[obj] = foreignVal("derived from multi-value assignment")
		}
	}
}

func (fa *funcAnalysis) rangeStmt(n *ast.RangeStmt, e env, check bool) {
	if check {
		fa.checkExpr(n.X, e)
	}
	xt := fa.la.typeOf(n.X)
	// range over m.Nodes is a machine-wide sweep.
	if sel, ok := n.X.(*ast.SelectorExpr); ok && sel.Sel.Name == "Nodes" && isMachine(fa.la.typeOf(sel.X)) {
		if check && !fa.universal {
			if fa.engine != "" || !fa.summary {
				fa.reportf(n.Pos(), "machine-wide sweep over m.Nodes from handler-reachable code; hoist behind m.ScheduleGlobal")
			}
		}
		fa.setRangeVar(n.Key, e, foreignVal("machine-wide node sweep"))
		fa.setRangeVar(n.Value, e, foreignVal("machine-wide node sweep"))
		return
	}
	why := "iterated collection"
	switch fa.canonOf(n.X, e).kind {
	case vForeign:
		why = fa.canonOf(n.X, e).why
	case vCanon:
		if w := canonWhy(fa.canonOf(n.X, e).path); w != "" {
			why = w + " (" + fa.canonOf(n.X, e).path + ")"
		}
	}
	if xt != nil {
		if m, ok := xt.Underlying().(*types.Map); ok && isNodeIDType(m.Key()) {
			fa.setRangeVar(n.Key, e, foreignVal("sharer-set iteration"))
			fa.setRangeVar(n.Value, e, foreignVal("sharer-set iteration"))
			return
		}
	}
	fa.setRangeVar(n.Key, e, foreignVal("index of "+why))
	fa.setRangeVar(n.Value, e, foreignVal(why))
}

func (fa *funcAnalysis) setRangeVar(expr ast.Expr, e env, v value) {
	id, ok := expr.(*ast.Ident)
	if !ok || id == nil {
		return
	}
	if obj := fa.la.info.ObjectOf(id); obj != nil {
		e[obj] = v
	}
}

// ---------------------------------------------------------------------------
// provenance evaluation

func (fa *funcAnalysis) canonOf(expr ast.Expr, e env) value {
	switch x := expr.(type) {
	case *ast.Ident:
		obj := fa.la.info.ObjectOf(x)
		if obj == nil {
			return foreignVal("unresolved identifier " + x.Name)
		}
		if _, isConst := obj.(*types.Const); isConst {
			return constVal
		}
		if v, ok := e[obj]; ok {
			return v
		}
		if _, isVar := obj.(*types.Var); isVar {
			if obj.Parent() == fa.la.pkg.Scope() || obj.Pkg() != fa.la.pkg {
				return foreignVal("package-level state " + x.Name)
			}
			return bottomVal // declared later / untracked local
		}
		return constVal // func/type idents in value position: not an index
	case *ast.BasicLit:
		return constVal
	case *ast.ParenExpr:
		return fa.canonOf(x.X, e)
	case *ast.UnaryExpr:
		return fa.canonOf(x.X, e)
	case *ast.StarExpr:
		return fa.canonOf(x.X, e)
	case *ast.SelectorExpr:
		return fa.canonSelector(x, e)
	case *ast.IndexExpr:
		return fa.canonIndex(x, e)
	case *ast.CallExpr:
		return fa.canonCall(x, e)
	case *ast.BinaryExpr:
		l, r := fa.canonOf(x.X, e), fa.canonOf(x.Y, e)
		if l.kind == vConst && r.kind == vConst {
			return constVal
		}
		return foreignVal("computed index")
	case *ast.TypeAssertExpr:
		base := fa.canonOf(x.X, e)
		if base.kind == vCanon {
			return canonVal(base.path + ".(assert)")
		}
		return base
	case *ast.CompositeLit:
		// Freshly constructed metadata belongs to the constructing lane
		// until it is installed on a line.
		if t := fa.la.typeOf(x); t != nil && fa.isMetaType(t) {
			return canonVal("@fresh")
		}
		return foreignVal("composite value")
	case *ast.FuncLit:
		return foreignVal("composite value")
	default:
		return foreignVal("untracked expression")
	}
}

func (fa *funcAnalysis) canonSelector(sel *ast.SelectorExpr, e env) value {
	// Qualified package identifier (coherent.NoNode)?
	if id, ok := sel.X.(*ast.Ident); ok {
		if _, isPkg := fa.la.info.ObjectOf(id).(*types.PkgName); isPkg {
			if _, isConst := fa.la.info.ObjectOf(sel.Sel).(*types.Const); isConst {
				return constVal
			}
			return foreignVal("package-level state " + sel.Sel.Name)
		}
	}
	base := fa.canonOf(sel.X, e)
	name := sel.Sel.Name
	if base.kind == vCanon {
		// Structured derefs through façade-produced values.
		if node, blk, ok := splitTxnPath(base.path); ok {
			switch name {
			case "Node":
				return canonVal(node)
			case "Block":
				return canonVal(blk)
			default:
				return canonVal(base.path + "." + name)
			}
		}
		if inner, ok := cutWrap(base.path, "nodeof("); ok && name == "ID" {
			return canonVal(inner)
		}
		return canonVal(base.path + "." + name)
	}
	if t := fa.la.typeOf(sel); t != nil && isNodeIDish(t) {
		// A node index read out of an untracked struct: a chain/tree
		// pointer or directory field another lane owns.
		if base.kind == vForeign {
			return foreignVal("chain pointer ." + name + " (" + base.why + ")")
		}
		return foreignVal("directory/chain-derived index ." + name)
	}
	if base.kind == vForeign {
		return base
	}
	return base
}

func (fa *funcAnalysis) canonIndex(ix *ast.IndexExpr, e env) value {
	// m.Nodes[i] yields a handle on node i (checked at checkExpr).
	if sel, ok := ix.X.(*ast.SelectorExpr); ok && sel.Sel.Name == "Nodes" && isMachine(fa.la.typeOf(sel.X)) {
		iv := fa.canonOf(ix.Index, e)
		if iv.kind == vCanon {
			return canonVal("nodeof(" + iv.path + ")")
		}
		return iv
	}
	base := fa.canonOf(ix.X, e)
	if t := fa.la.typeOf(ix); t != nil && isNodeIDish(t) {
		switch base.kind {
		case vCanon:
			if w := canonWhy(base.path); w != "" {
				return foreignVal(w + " (" + base.path + ")")
			}
			return foreignVal("element of " + base.path)
		case vForeign:
			return foreignVal(base.why)
		default:
			return foreignVal("read of " + types.ExprString(ix.X))
		}
	}
	if base.kind == vCanon {
		return canonVal(base.path + "[...]")
	}
	return base
}

func (fa *funcAnalysis) canonCall(call *ast.CallExpr, e env) value {
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok && isMachine(fa.la.typeOf(sel.X)) {
		switch sel.Sel.Name {
		case "Home":
			if len(call.Args) == 1 {
				bv := fa.canonOf(call.Args[0], e)
				if bv.kind == vCanon {
					return canonVal("home(" + bv.path + ")")
				}
				return bv
			}
		case "Txn":
			if len(call.Args) == 2 {
				nv := fa.canonOf(call.Args[0], e)
				bv := fa.canonOf(call.Args[1], e)
				if nv.kind == vCanon && bv.kind == vCanon {
					return canonVal("txn(" + nv.path + ";" + bv.path + ")")
				}
				if nv.kind == vForeign {
					return nv
				}
				return foreignVal("transaction handle with untracked owner")
			}
		}
	}
	switch fn := call.Fun.(type) {
	case *ast.Ident:
		switch fn.Name {
		case "len", "cap", "int", "uint64", "uint32", "uint", "byte":
			return constVal
		case "append":
			// append(xs, ys...) carries the joined provenance of the
			// appended elements — this is how msg.Ptrs flows into a
			// meta children slice.
			v := bottomVal
			for _, a := range call.Args[1:] {
				v = v.join(fa.canonOf(a, e))
			}
			if len(call.Args) > 0 {
				v = v.join(fa.canonOf(call.Args[0], e))
			}
			return v
		}
	}
	// <node>.Cache.Lookup(b) yields a handle on that node's own line:
	// track it as lineof(node) so metadata mutations can be tied back
	// to the lane that owns the line.
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Lookup" && len(call.Args) == 1 {
		bv := fa.canonOf(sel.X, e)
		if bv.kind == vCanon && strings.HasSuffix(bv.path, ".Cache") {
			inner := strings.TrimSuffix(bv.path, ".Cache")
			if i2, ok := cutWrap(inner, "nodeof("); ok {
				inner = i2
			}
			return canonVal("lineof(" + inner + ")")
		}
	}
	// Package-local metadata helpers: a single-argument accessor
	// (sciMetaOf(ln) and friends) passes its argument's line provenance
	// through; a zero-argument constructor (newMeta()) yields fresh
	// metadata owned by the constructing lane.
	if callee := fa.la.calleeFunc(call); callee != nil {
		if t := fa.la.typeOf(call); t != nil && fa.isMetaType(t) {
			switch len(call.Args) {
			case 0:
				return canonVal("@fresh")
			case 1:
				return fa.canonOf(call.Args[0], e)
			}
		}
	}
	name := types.ExprString(call.Fun)
	if t := fa.la.typeOf(call); t != nil && isNodeIDish(t) {
		return foreignVal("node index derived by " + name)
	}
	return foreignVal("result of " + name)
}

func splitTxnPath(path string) (node, blk string, ok bool) {
	inner, ok := cutWrap(path, "txn(")
	if !ok {
		return "", "", false
	}
	// split on the top-level ';'
	depth := 0
	for i := 0; i < len(inner); i++ {
		switch inner[i] {
		case '(':
			depth++
		case ')':
			depth--
		case ';':
			if depth == 0 {
				return inner[:i], inner[i+1:], true
			}
		}
	}
	return "", "", false
}

// lineInner extracts X from a path rooted at lineof(X), tolerating any
// selector suffix ("lineof(msg.Dst).Meta.(assert)" -> "msg.Dst").
func lineInner(path string) (string, bool) {
	rest, ok := strings.CutPrefix(path, "lineof(")
	if !ok {
		return "", false
	}
	depth := 1
	for i := 0; i < len(rest); i++ {
		switch rest[i] {
		case '(':
			depth++
		case ')':
			depth--
			if depth == 0 {
				return rest[:i], true
			}
		}
	}
	return "", false
}

func cutWrap(path, prefix string) (string, bool) {
	if strings.HasPrefix(path, prefix) && strings.HasSuffix(path, ")") {
		return path[len(prefix) : len(path)-1], true
	}
	return "", false
}

// ---------------------------------------------------------------------------
// checks (reporting pass only)

// checkExpr walks expr, firing residency checks at every sink.
func (fa *funcAnalysis) checkExpr(expr ast.Expr, e env) {
	switch x := expr.(type) {
	case nil:
		return
	case *ast.CallExpr:
		fa.checkCall(x, e)
	case *ast.IndexExpr:
		fa.checkNodesIndex(x, e)
		fa.checkEngineSliceIndex(x, e)
		fa.checkExpr(x.X, e)
		fa.checkExpr(x.Index, e)
	case *ast.SelectorExpr:
		fa.checkEngineMapField(x, e)
		fa.checkExpr(x.X, e)
	case *ast.ParenExpr:
		fa.checkExpr(x.X, e)
	case *ast.StarExpr:
		fa.checkExpr(x.X, e)
	case *ast.UnaryExpr:
		fa.checkExpr(x.X, e)
	case *ast.BinaryExpr:
		fa.checkExpr(x.X, e)
		fa.checkExpr(x.Y, e)
	case *ast.TypeAssertExpr:
		fa.checkExpr(x.X, e)
	case *ast.SliceExpr:
		fa.checkExpr(x.X, e)
		fa.checkExpr(x.Low, e)
		fa.checkExpr(x.High, e)
		fa.checkExpr(x.Max, e)
	case *ast.CompositeLit:
		fa.checkCompositeLit(x, e)
	case *ast.KeyValueExpr:
		fa.checkExpr(x.Value, e)
	case *ast.FuncLit:
		// A func literal outside a façade argument position runs in
		// the same lane (e.g. a sort.Slice comparator): analyze it
		// under the current context and environment.
		sub := fa.cloneFor(fa.R, fa.HB, fa.rebased, fa.universal)
		sub.analyzeBody(x.Body, e.clone())
	}
}

// cloneFor derives a funcAnalysis for a closure body.
func (fa *funcAnalysis) cloneFor(R, HB map[string]bool, rebased, universal bool) *funcAnalysis {
	return &funcAnalysis{
		la: fa.la, decl: fa.decl, R: R, HB: HB,
		summary: fa.summary, sum: fa.sum, engine: fa.engine,
		rebased: rebased, universal: universal,
		mapFields: fa.mapFields,
	}
}

// checkWrite fires the write-position check (R3) for lhs.
func (fa *funcAnalysis) checkWrite(lhs ast.Expr, rhs []ast.Expr, e env) {
	// Unwrap index/paren around the selector: meta.children[i] = v.
	target := lhs
	for {
		switch t := target.(type) {
		case *ast.IndexExpr:
			target = t.X
			continue
		case *ast.ParenExpr:
			target = t.X
			continue
		case *ast.StarExpr:
			target = t.X
			continue
		}
		break
	}
	sel, ok := target.(*ast.SelectorExpr)
	if !ok {
		return
	}
	// R3: chain-link store into a FOREIGN line's metadata. The value
	// being stored is plain data — what matters is which lane owns the
	// line the metadata belongs to. Metadata reached through a
	// lane-resident lookup (lineof(X) with X resident) is fine; a
	// bare parameter-rooted handle is the callee's contract (recorded
	// as a requirement in summary mode, accepted at handler entry where
	// the only line parameter is OnEvict's own).
	if bt := fa.la.typeOf(sel.X); bt != nil && fa.isMetaType(bt) {
		if ft := fa.la.typeOf(sel); ft != nil && isNodeIDish(ft) {
			v := fa.canonOf(sel.X, e)
			if v.kind == vCanon && lineRootIsParam(v.path, fa.sum, fa.decl) && !fa.summary {
				return
			}
			if !fa.resident(reqLane, v) {
				fa.failResidency(lhs.Pos(), reqLane, v,
					fmt.Sprintf("chain-link store into %s.%s on a foreign line", typeName(bt), sel.Sel.Name))
			}
		}
	}
}

// lineRootIsParam reports whether a canonical metadata path is rooted at
// one of the enclosing declaration's parameters without a lineof()
// wrapper — i.e. a line/metadata handle the caller handed in directly.
func lineRootIsParam(path string, sum *funcSummary, decl *ast.FuncDecl) bool {
	if _, wrapped := lineInner(path); wrapped {
		return false
	}
	return contains(paramNames(decl), pathRoot(path))
}

func (fa *funcAnalysis) isMetaType(t types.Type) bool {
	for {
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
			continue
		}
		break
	}
	n, ok := t.(*types.Named)
	return ok && fa.la.metaTypes[n]
}

func typeName(t types.Type) string {
	for {
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
			continue
		}
		break
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return t.String()
}

// checkNodesIndex fires R1 at m.Nodes[i].
func (fa *funcAnalysis) checkNodesIndex(ix *ast.IndexExpr, e env) {
	sel, ok := ix.X.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Nodes" || !isMachine(fa.la.typeOf(sel.X)) {
		return
	}
	v := fa.canonOf(ix.Index, e)
	if !fa.resident(reqLane, v) {
		fa.failResidency(ix.Pos(), reqLane, v, fmt.Sprintf("access to m.Nodes[%s]", types.ExprString(ix.Index)))
	}
}

// checkEngineMapField fires R4 on engine-state map fields.
func (fa *funcAnalysis) checkEngineMapField(sel *ast.SelectorExpr, e env) {
	bt := fa.la.typeOf(sel.X)
	if bt == nil {
		return
	}
	for {
		if p, ok := bt.(*types.Pointer); ok {
			bt = p.Elem()
			continue
		}
		break
	}
	n, ok := bt.(*types.Named)
	if !ok || n.Obj().Pkg() != fa.la.pkg {
		return
	}
	if !fa.la.state[n.Obj().Name()] {
		return
	}
	ft := fa.la.typeOf(sel)
	if ft == nil {
		return
	}
	if _, isMap := ft.Underlying().(*types.Map); !isMap {
		return
	}
	if fa.universal {
		return
	}
	key := fa.funcName() + "." + sel.Sel.Name
	if fa.mapFields[key] {
		return
	}
	fa.mapFields[key] = true
	if fa.engine != "" || !fa.summary {
		fa.reportf(sel.Pos(), "engine-global map %s.%s is shared across lanes; hoist it into per-home directory state (m.Dir/m.SetDir)",
			n.Obj().Name(), sel.Sel.Name)
	}
}

// checkEngineSliceIndex fires the R4 slice variant: a per-lane engine
// slice field (e.tombs[i], e.aggs[i]) may only be indexed by a
// lane-resident node — each lane owns exactly its own slot.
func (fa *funcAnalysis) checkEngineSliceIndex(ix *ast.IndexExpr, e env) {
	sel, ok := ix.X.(*ast.SelectorExpr)
	if !ok {
		return
	}
	bt := fa.la.typeOf(sel.X)
	if bt == nil {
		return
	}
	for {
		if p, ok := bt.(*types.Pointer); ok {
			bt = p.Elem()
			continue
		}
		break
	}
	n, ok := bt.(*types.Named)
	if !ok || n.Obj().Pkg() != fa.la.pkg {
		return
	}
	if !fa.la.state[n.Obj().Name()] {
		return
	}
	ft := fa.la.typeOf(sel)
	if ft == nil {
		return
	}
	if _, isSlice := ft.Underlying().(*types.Slice); !isSlice {
		return
	}
	v := fa.canonOf(ix.Index, e)
	if !fa.resident(reqLane, v) {
		fa.failResidency(ix.Pos(), reqLane, v,
			fmt.Sprintf("per-lane engine state %s.%s[%s]", n.Obj().Name(), sel.Sel.Name, types.ExprString(ix.Index)))
	}
}

func (fa *funcAnalysis) checkCompositeLit(cl *ast.CompositeLit, e env) {
	// Composite literals of metadata types construct the metadata for a
	// line being installed on the constructing lane (CompleteTxn), so
	// message-carried indices in them are plain data — no R3 here; the
	// elements still get the generic sink walk.
	for _, elt := range cl.Elts {
		fa.checkExpr(elt, e)
	}
}

func derefStruct(t types.Type) (*types.Struct, bool) {
	for {
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
			continue
		}
		break
	}
	st, ok := t.Underlying().(*types.Struct)
	return st, ok
}

// checkCall handles Machine façade calls (R2, R5, scheduling closures)
// and package-local helper calls (summary requirements).
func (fa *funcAnalysis) checkCall(call *ast.CallExpr, e env) {
	defer func() {
		// Always walk arguments and the callee expression for nested
		// sinks; FuncLits in façade positions were consumed below and
		// replaced by nil in argsToWalk.
		for _, a := range fa.argsToWalk(call, e) {
			fa.checkExpr(a, e)
		}
	}()

	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if isSel && isMachine(fa.la.typeOf(sel.X)) {
		switch sel.Sel.Name {
		case "Invalidate", "ReplaceBlock":
			if len(call.Args) >= 1 {
				v := fa.canonOf(call.Args[0], e)
				if !fa.resident(reqLane, v) {
					fa.failResidency(call.Pos(), reqLane, v,
						fmt.Sprintf("m.%s(%s, ...) mutates that node's cache", sel.Sel.Name, types.ExprString(call.Args[0])))
				}
			}
		case "ReleaseHome", "Dir", "SetDir":
			if len(call.Args) >= 1 {
				v := fa.canonOf(call.Args[0], e)
				if !fa.resident(reqHome, v) {
					fa.failResidency(call.Pos(), reqHome, v,
						fmt.Sprintf("m.%s(%s) touches the home directory/gate state", sel.Sel.Name, types.ExprString(call.Args[0])))
				}
			}
		case "SerializeWrite":
			if len(call.Args) == 1 {
				mv := fa.canonOf(call.Args[0], e)
				v := mv
				if mv.kind == vCanon {
					v = canonVal(mv.path + ".Block")
				}
				if !fa.resident(reqHome, v) {
					fa.failResidency(call.Pos(), reqHome, v,
						"m.SerializeWrite touches the home write-serialization state")
				}
			}
		case "ScheduleAt":
			if len(call.Args) == 3 {
				fa.checkScheduledClosure(call.Args[0], call.Args[2], e)
			}
		case "DeferAt":
			// m.DeferAt(issuer, target, fn): the issuer pins the replay
			// order and must be the entry lane; the closure runs on the
			// target's lane.
			if len(call.Args) == 3 {
				iv := fa.canonOf(call.Args[0], e)
				if !fa.resident(reqLane, iv) {
					fa.failResidency(call.Pos(), reqLane, iv,
						fmt.Sprintf("m.DeferAt issuer %s must be the entry lane", types.ExprString(call.Args[0])))
				}
				fa.checkScheduledClosure(call.Args[1], call.Args[2], e)
			}
		case "ScheduleGlobal", "GlobalOpAt":
			for _, a := range call.Args {
				if fn, ok := a.(*ast.FuncLit); ok {
					sub := fa.cloneFor(nil, nil, true, true)
					if sub.R == nil {
						sub.R = map[string]bool{}
					}
					if sub.HB == nil {
						sub.HB = map[string]bool{}
					}
					sub.analyzeBody(fn.Body, e.clone())
				}
			}
		}
		return
	}

	// Package-local helper with a summary: check its requirements
	// against the argument provenances.
	callee := fa.la.calleeFunc(call)
	if callee == nil {
		return
	}
	s, ok := fa.la.summaries[callee]
	if !ok || len(s.reqs) == 0 {
		return
	}
	for _, r := range s.reqs {
		v := fa.substReqPath(r.path, s.params, call.Args, e)
		if fa.resident(r.kind, v) {
			continue
		}
		what := fmt.Sprintf("call to %s: %s", callee.Name(), r.what)
		fa.failResidency(call.Pos(), r.kind, v, what)
	}
}

// checkScheduledClosure handles the closure argument of
// m.ScheduleAt(n, d, fn) and m.DeferAt(issuer, n, fn): the closure body
// is re-based to n's lane.
func (fa *funcAnalysis) checkScheduledClosure(target, fnArg ast.Expr, e env) {
	fn, ok := fnArg.(*ast.FuncLit)
	if !ok {
		return
	}
	nv := fa.canonOf(target, e)
	R, HB := map[string]bool{}, map[string]bool{}
	sube := e.clone()
	switch nv.kind {
	case vCanon:
		R[nv.path] = true
		if inner, ok := cutWrap(nv.path, "home("); ok {
			HB[inner] = true
		}
	case vForeign, vConst:
		// ScheduleAt(next, ...) / DeferAt(n, next, ...) with a
		// chain-derived index is exactly the sanctioned cross-lane
		// pattern: inside the closure, that variable IS the resident
		// lane. Re-bind it.
		if id, ok := target.(*ast.Ident); ok {
			if obj := fa.la.info.ObjectOf(id); obj != nil {
				sube[obj] = canonVal("@scheduled")
				R["@scheduled"] = true
			}
		}
	}
	sub := fa.cloneFor(R, HB, true, false)
	sub.analyzeBody(fn.Body, sube)
}

// argsToWalk returns the sub-expressions of call that still need the
// generic sink walk: everything except FuncLit bodies consumed by the
// scheduling façade above (those were analyzed under their own context).
func (fa *funcAnalysis) argsToWalk(call *ast.CallExpr, e env) []ast.Expr {
	var out []ast.Expr
	consumedFuncLits := false
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok && isMachine(fa.la.typeOf(sel.X)) {
		switch sel.Sel.Name {
		case "ScheduleAt", "ScheduleGlobal", "GlobalOpAt", "DeferAt":
			consumedFuncLits = true
		}
	}
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		out = append(out, sel.X)
	}
	for _, a := range call.Args {
		if _, isLit := a.(*ast.FuncLit); isLit && consumedFuncLits {
			continue
		}
		out = append(out, a)
	}
	return out
}

// substReqPath resolves a callee requirement path against the call-site
// arguments: the path root (a callee parameter name) is replaced by the
// canonical value of the corresponding argument.
func (fa *funcAnalysis) substReqPath(path string, params []string, args []ast.Expr, e env) value {
	if inner, ok := cutWrap(path, "home("); ok {
		v := fa.substReqPath(inner, params, args, e)
		if v.kind == vCanon {
			return canonVal("home(" + v.path + ")")
		}
		return v
	}
	if inner, ok := cutWrap(path, "lineof("); ok {
		v := fa.substReqPath(inner, params, args, e)
		if v.kind == vCanon {
			return canonVal("lineof(" + v.path + ")")
		}
		return v
	}
	root := pathRoot(path)
	idx := -1
	for i, p := range params {
		if p == root {
			idx = i
			break
		}
	}
	if idx < 0 || idx >= len(args) {
		return foreignVal("argument flowing into " + path)
	}
	suffix := strings.TrimPrefix(path, root)
	// A composite-literal argument (e.g. aggKey{n: n, b: b}) resolves a
	// field requirement like "key.n" to the matching element expression.
	if cl, ok := args[idx].(*ast.CompositeLit); ok && suffix != "" {
		segs := strings.Split(strings.TrimPrefix(suffix, "."), ".")
		if len(segs) > 0 && segs[0] != "" {
			for _, el := range cl.Elts {
				kv, ok := el.(*ast.KeyValueExpr)
				if !ok {
					continue
				}
				key, ok := kv.Key.(*ast.Ident)
				if !ok || key.Name != segs[0] {
					continue
				}
				v := fa.canonOf(kv.Value, e)
				if v.kind != vCanon {
					return v
				}
				for _, seg := range segs[1:] {
					v = canonVal(v.path + "." + seg)
				}
				return v
			}
		}
		return foreignVal("composite value")
	}
	av := fa.canonOf(args[idx], e)
	if suffix == "" {
		return av
	}
	if av.kind != vCanon {
		return av
	}
	// Re-apply the dotted suffix through structured derefs.
	v := av
	for _, seg := range strings.Split(strings.TrimPrefix(suffix, "."), ".") {
		if seg == "" {
			continue
		}
		if node, blk, ok := splitTxnPath(v.path); ok {
			switch seg {
			case "Node":
				v = canonVal(node)
				continue
			case "Block":
				v = canonVal(blk)
				continue
			}
		}
		if inner, ok := cutWrap(v.path, "nodeof("); ok && seg == "ID" {
			v = canonVal(inner)
			continue
		}
		v = canonVal(v.path + "." + seg)
	}
	return v
}

// ---------------------------------------------------------------------------
// R6: machine counters

// checkCtr reports every mutation of Machine.Ctr in the package: direct
// writes (m.Ctr.X++, m.Ctr.M[k] = v), &m.Ctr aliases that escape the
// write check, and pointer-receiver method calls reached through Ctr.
// Reading Ctr (reports, post-run assertions) stays fine.
func checkCtr(p *Pass) {
	write := func(lhs ast.Expr) {
		if sel := ctrSelector(p, lhs); sel != nil {
			p.Reportf(sel.Sel.Pos(),
				"writes Machine.Ctr from engine code; handlers on a sharded machine must count through m.CtrAt(n)")
		}
	}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.IncDecStmt:
				write(n.X)
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					write(lhs)
				}
			case *ast.UnaryExpr:
				if n.Op == token.AND && ctrSelector(p, n.X) != nil {
					p.Reportf(n.Pos(),
						"takes the address of Machine.Ctr from engine code; the alias defeats the CtrAt lane-local counter rule")
				}
			case *ast.CallExpr:
				checkCtrMethodCall(p, n)
			}
			return true
		})
	}
}

// ctrSelector returns the m.Ctr selector on expr's selector chain, or
// nil when the chain does not pass through a Machine's Ctr field.
func ctrSelector(p *Pass, expr ast.Expr) *ast.SelectorExpr {
	for {
		switch e := expr.(type) {
		case *ast.SelectorExpr:
			if e.Sel.Name == "Ctr" && isMachine(p.Info.TypeOf(e.X)) {
				return e
			}
			expr = e.X
		case *ast.IndexExpr:
			expr = e.X
		case *ast.ParenExpr:
			expr = e.X
		case *ast.StarExpr:
			expr = e.X
		default:
			return nil
		}
	}
}

// checkCtrMethodCall reports method calls reached through Machine.Ctr
// whose receiver is a pointer (Counters.Add, Counters.CountMsg,
// Histogram.Observe, ...): they mutate the machine-global counters
// just like a direct field write.
func checkCtrMethodCall(p *Pass, call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || ctrSelector(p, sel.X) == nil {
		return
	}
	selection, ok := p.Info.Selections[sel]
	if !ok || selection.Kind() != types.MethodVal {
		return
	}
	sig, ok := selection.Obj().Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return
	}
	if _, isPtr := sig.Recv().Type().(*types.Pointer); !isPtr {
		return
	}
	p.Reportf(call.Pos(),
		"calls %s through Machine.Ctr from engine code; pointer-receiver methods mutate the machine-global counters — use m.CtrAt(n)",
		selection.Obj().Name())
}

// ---------------------------------------------------------------------------
// type helpers

func isNodeIDType(t types.Type) bool {
	if t == nil {
		return false
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	return n.Obj().Name() == "NodeID"
}

func isNodeIDish(t types.Type) bool {
	switch t := t.(type) {
	case *types.Slice:
		return isNodeIDType(t.Elem())
	case *types.Array:
		return isNodeIDType(t.Elem())
	default:
		return isNodeIDType(t)
	}
}

func isBoolType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Kind() == types.Bool
}

// isMachine reports whether t is coherent.Machine or a pointer to it.
func isMachine(t types.Type) bool {
	if t == nil {
		return false
	}
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Machine" && obj.Pkg() != nil && obj.Pkg().Path() == coherentPath
}

// Package conduit implements a hierarchical, schema-free data model in the
// spirit of LLNL's Conduit library, which the SOMA paper uses to represent
// all monitoring data. A Node is an ordered tree: interior nodes hold named
// children, leaf nodes hold a typed scalar or array value. Paths use '/' as
// the separator, exactly like Conduit's fetch paths, so the layouts shown in
// the paper (Listings 1 and 2) translate one to one:
//
//	n := conduit.NewNode()
//	n.SetString("RP/task.000000/1698435412.6060030", "launch_start")
//	n.SetInt("PROC/cn4302/3824813742052238/Uptime", 49902)
//
// Nodes are not safe for concurrent mutation; callers that share a Node
// across goroutines must synchronize externally (the SOMA service does).
package conduit

import (
	"fmt"
	"sort"
	"strings"
)

// Kind identifies what a Node holds.
type Kind uint8

// Node kinds. An Object node has named children; every other kind is a leaf.
const (
	KindEmpty Kind = iota
	KindObject
	KindInt
	KindFloat
	KindString
	KindBool
	KindIntArray
	KindFloatArray
)

var kindNames = [...]string{
	KindEmpty:      "empty",
	KindObject:     "object",
	KindInt:        "int64",
	KindFloat:      "float64",
	KindString:     "string",
	KindBool:       "bool",
	KindIntArray:   "int64_array",
	KindFloatArray: "float64_array",
}

// String returns the Conduit-style dtype name for k.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Node is one vertex of the hierarchy. The zero value is an empty node.
type Node struct {
	kind Kind

	i int64
	f float64
	s string
	b bool
	// ia and fa are stored by reference; callers that need isolation should
	// pass copies (Set*Array copies by default, see below).
	ia []int64
	fa []float64

	children map[string]*Node
	// order preserves insertion order of children, which matters for
	// deterministic serialization and for timeline-like layouts where the
	// child names are timestamps appended in order.
	order []string
	// cowBase, when non-nil, is the shared base layer of a copy-on-write
	// object node produced by MergeCOW: children then holds only this node's
	// delta (additions and overrides of the base), while order covers base
	// and delta names together in insertion order. Overlay nodes are
	// immutable by contract; the mutating entry points (ensureChild, Attach,
	// Remove) flatten them into plain nodes first.
	cowBase *Node
}

// NewNode returns an empty node ready for use.
func NewNode() *Node { return &Node{} }

// Kind reports what the node currently holds.
func (n *Node) Kind() Kind { return n.kind }

// IsLeaf reports whether the node holds a value rather than children.
func (n *Node) IsLeaf() bool { return n.kind != KindObject && n.kind != KindEmpty }

// IsEmpty reports whether the node holds nothing at all.
func (n *Node) IsEmpty() bool { return n.kind == KindEmpty }

// NumChildren returns the number of direct children.
func (n *Node) NumChildren() int { return len(n.order) }

// ChildNames returns the direct child names in insertion order. The returned
// slice is a copy.
func (n *Node) ChildNames() []string {
	out := make([]string, len(n.order))
	copy(out, n.order)
	return out
}

// reset clears any held value but keeps children intact only when the node
// is already an object.
func (n *Node) setLeaf(k Kind) {
	n.kind = k
	n.children = nil
	n.order = nil
	n.cowBase = nil
}

// lookup resolves a direct child through the copy-on-write chain: the node's
// own delta first, then each base layer. Plain nodes resolve in one map
// probe; overlay chains are kept at most two layers deep by MergeCOW.
func (n *Node) lookup(name string) *Node {
	for cur := n; cur != nil; cur = cur.cowBase {
		if c, ok := cur.children[name]; ok {
			return c
		}
	}
	return nil
}

// flatten materializes a copy-on-write overlay node into a plain node,
// resolving the base chain into one owned children map. A no-op on plain
// nodes.
func (n *Node) flatten() {
	if n.cowBase == nil {
		return
	}
	m := make(map[string]*Node, len(n.order))
	for _, name := range n.order {
		m[name] = n.lookup(name)
	}
	n.children = m
	n.cowBase = nil
}

// Child returns the direct child with the given name, or nil.
func (n *Node) Child(name string) *Node {
	return n.lookup(name)
}

// ensureChild returns the direct child with the given name, creating it (and
// converting n into an object node) when absent.
func (n *Node) ensureChild(name string) *Node {
	if n.kind != KindObject {
		// Overwrite any leaf value: assigning children to a leaf converts it,
		// mirroring Conduit's behaviour of re-shaping on assignment.
		n.kind = KindObject
		n.i, n.f, n.s, n.b, n.ia, n.fa = 0, 0, "", false, nil, nil
	}
	n.flatten()
	if n.children == nil {
		n.children = make(map[string]*Node)
	}
	c, ok := n.children[name]
	if !ok {
		c = &Node{}
		n.children[name] = c
		n.order = append(n.order, name)
	}
	return c
}

// splitPath splits a '/'-separated path, dropping empty segments so that
// "a//b/" means "a/b".
func splitPath(path string) []string {
	raw := strings.Split(path, "/")
	segs := raw[:0]
	for _, s := range raw {
		if s != "" {
			segs = append(segs, s)
		}
	}
	return segs
}

// nextSeg iterates path segments without allocating: it returns the first
// non-empty segment and the remainder. seg is "" only when path is
// exhausted.
func nextSeg(path string) (seg, rest string) {
	for path != "" {
		i := strings.IndexByte(path, '/')
		if i < 0 {
			return path, ""
		}
		seg, path = path[:i], path[i+1:]
		if seg != "" {
			return seg, path
		}
	}
	return "", ""
}

// Fetch returns the node at path, creating intermediate object nodes as
// needed. Fetch with an empty path returns n itself.
func (n *Node) Fetch(path string) *Node {
	cur := n
	for seg, rest := nextSeg(path); seg != ""; seg, rest = nextSeg(rest) {
		cur = cur.ensureChild(seg)
	}
	return cur
}

// Get returns the node at path without creating anything; ok is false when
// any path segment is missing.
func (n *Node) Get(path string) (node *Node, ok bool) {
	cur := n
	for seg, rest := nextSeg(path); seg != ""; seg, rest = nextSeg(rest) {
		cur = cur.Child(seg)
		if cur == nil {
			return nil, false
		}
	}
	return cur, true
}

// Has reports whether a node exists at path.
func (n *Node) Has(path string) bool {
	_, ok := n.Get(path)
	return ok
}

// Remove deletes the child subtree at path. It reports whether anything was
// removed.
func (n *Node) Remove(path string) bool {
	segs := splitPath(path)
	if len(segs) == 0 {
		return false
	}
	parent := n
	for _, seg := range segs[:len(segs)-1] {
		parent = parent.Child(seg)
		if parent == nil {
			return false
		}
	}
	name := segs[len(segs)-1]
	parent.flatten()
	if parent.children == nil {
		return false
	}
	if _, ok := parent.children[name]; !ok {
		return false
	}
	delete(parent.children, name)
	for i, nm := range parent.order {
		if nm == name {
			parent.order = append(parent.order[:i], parent.order[i+1:]...)
			break
		}
	}
	return true
}

// SetInt stores an int64 leaf at path.
func (n *Node) SetInt(path string, v int64) {
	c := n.Fetch(path)
	c.setLeaf(KindInt)
	c.i = v
}

// SetFloat stores a float64 leaf at path.
func (n *Node) SetFloat(path string, v float64) {
	c := n.Fetch(path)
	c.setLeaf(KindFloat)
	c.f = v
}

// SetString stores a string leaf at path.
func (n *Node) SetString(path, v string) {
	c := n.Fetch(path)
	c.setLeaf(KindString)
	c.s = v
}

// SetBool stores a bool leaf at path.
func (n *Node) SetBool(path string, v bool) {
	c := n.Fetch(path)
	c.setLeaf(KindBool)
	c.b = v
}

// SetIntArray stores a copy of v as an int64 array leaf at path.
func (n *Node) SetIntArray(path string, v []int64) {
	c := n.Fetch(path)
	c.setLeaf(KindIntArray)
	c.ia = append([]int64(nil), v...)
}

// SetFloatArray stores a copy of v as a float64 array leaf at path.
func (n *Node) SetFloatArray(path string, v []float64) {
	c := n.Fetch(path)
	c.setLeaf(KindFloatArray)
	c.fa = append([]float64(nil), v...)
}

// Int returns the int64 at path. Float leaves are truncated. ok is false
// when the path is missing or holds a non-numeric leaf.
func (n *Node) Int(path string) (v int64, ok bool) {
	c, ok := n.Get(path)
	if !ok {
		return 0, false
	}
	switch c.kind {
	case KindInt:
		return c.i, true
	case KindFloat:
		return int64(c.f), true
	default:
		return 0, false
	}
}

// Float returns the float64 at path, converting int leaves.
func (n *Node) Float(path string) (v float64, ok bool) {
	c, ok := n.Get(path)
	if !ok {
		return 0, false
	}
	switch c.kind {
	case KindFloat:
		return c.f, true
	case KindInt:
		return float64(c.i), true
	default:
		return 0, false
	}
}

// String returns the string at path.
func (n *Node) StringVal(path string) (v string, ok bool) {
	c, ok := n.Get(path)
	if !ok || c.kind != KindString {
		return "", false
	}
	return c.s, true
}

// Bool returns the bool at path.
func (n *Node) Bool(path string) (v bool, ok bool) {
	c, ok := n.Get(path)
	if !ok || c.kind != KindBool {
		return false, false
	}
	return c.b, true
}

// IntArray returns the int64 array stored at path. The returned slice is the
// node's backing array; treat it as read-only.
func (n *Node) IntArray(path string) (v []int64, ok bool) {
	c, ok := n.Get(path)
	if !ok || c.kind != KindIntArray {
		return nil, false
	}
	return c.ia, true
}

// FloatArray returns the float64 array stored at path; read-only.
func (n *Node) FloatArray(path string) (v []float64, ok bool) {
	c, ok := n.Get(path)
	if !ok || c.kind != KindFloatArray {
		return nil, false
	}
	return c.fa, true
}

// Value returns the leaf value as an interface{} (nil for object/empty).
func (n *Node) Value() interface{} {
	switch n.kind {
	case KindInt:
		return n.i
	case KindFloat:
		return n.f
	case KindString:
		return n.s
	case KindBool:
		return n.b
	case KindIntArray:
		return n.ia
	case KindFloatArray:
		return n.fa
	default:
		return nil
	}
}

// Clone returns a deep copy of the subtree rooted at n.
func (n *Node) Clone() *Node {
	out := &Node{kind: n.kind, i: n.i, f: n.f, s: n.s, b: n.b}
	if n.ia != nil {
		out.ia = append([]int64(nil), n.ia...)
	}
	if n.fa != nil {
		out.fa = append([]float64(nil), n.fa...)
	}
	if n.children != nil || n.cowBase != nil {
		out.children = make(map[string]*Node, len(n.order))
		out.order = append([]string(nil), n.order...)
		for _, name := range n.order {
			out.children[name] = n.lookup(name).Clone()
		}
	}
	return out
}

// Merge copies every leaf of src into n, overwriting leaves that collide and
// creating intermediate objects as needed. Children unique to n survive.
// This is how the SOMA service combines updates arriving for the same
// namespace collection.
func (n *Node) Merge(src *Node) {
	if src == nil {
		return
	}
	if src.kind != KindObject {
		if src.kind != KindEmpty {
			n.setLeaf(src.kind)
			n.i, n.f, n.s, n.b = src.i, src.f, src.s, src.b
			n.ia = append([]int64(nil), src.ia...)
			n.fa = append([]float64(nil), src.fa...)
		}
		return
	}
	for _, name := range src.order {
		n.ensureChild(name).Merge(src.lookup(name))
	}
}

// Attach grafts child into n as the direct child with the given name,
// replacing any existing child, without copying — the zero-copy counterpart
// of Fetch(name).Merge(child). The child is shared by reference: the caller
// must not mutate it afterwards. SOMA's hot paths use it to wrap published
// trees in RPC envelopes and snapshot subtrees in responses.
func (n *Node) Attach(name string, child *Node) {
	if n.kind != KindObject {
		n.kind = KindObject
		n.i, n.f, n.s, n.b, n.ia, n.fa = 0, 0, "", false, nil, nil
	}
	n.flatten()
	if n.children == nil {
		n.children = make(map[string]*Node)
	}
	if _, ok := n.children[name]; !ok {
		n.order = append(n.order, name)
	}
	n.children[name] = child
}

// Overlay bounds for MergeCOW. A chain deeper than cowMaxChain is collapsed
// into a single delta over the flat base (so lookups stay a handful of map
// probes); a delta holding more than max(cowFlattenMin, total/cowFlattenFrac)
// entries is materialized into a flat map (so a delta never dwarfs the base
// it shadows).
const (
	cowFlattenMin  = 16
	cowFlattenFrac = 8
	cowMaxChain    = 8
)

// compact enforces the overlay bounds on a freshly built MergeCOW node; n is
// owned by the caller at this point, so rewriting it in place is safe.
func (n *Node) compact() {
	depth, deltaTotal := 0, 0
	base := n
	for base.cowBase != nil {
		depth++
		deltaTotal += len(base.children)
		base = base.cowBase
	}
	if deltaTotal > cowFlattenMin && deltaTotal*cowFlattenFrac > len(n.order) {
		n.flatten()
		return
	}
	if depth <= cowMaxChain {
		return
	}
	// Collapse the chain into one delta over the flat base: apply layers
	// oldest-first so newer entries shadow older ones.
	layers := make([]*Node, 0, depth)
	for cur := n; cur.cowBase != nil; cur = cur.cowBase {
		layers = append(layers, cur)
	}
	m := make(map[string]*Node, deltaTotal)
	for i := len(layers) - 1; i >= 0; i-- {
		for name, c := range layers[i].children {
			m[name] = c
		}
	}
	n.children = m
	n.cowBase = base
}

// MergeCOW returns a tree with the same contents dst would have after
// dst.Merge(src), without mutating dst: nodes along paths touched by src
// become thin overlays (a small delta map layered over dst's node via
// cowBase), everything untouched is shared by reference with dst, and
// subtrees unique to src are shared by reference with src. Both inputs must
// be treated as immutable afterwards. This is the copy-on-read primitive
// behind the SOMA service's merge snapshots: building generation N+1 costs
// O(paths touched by src), not O(fan-out of dst) — a 10k-child host node is
// never recopied just because one sample under it changed.
func MergeCOW(dst, src *Node) *Node {
	if src == nil || src.kind == KindEmpty {
		return dst
	}
	if dst == nil || dst.kind == KindEmpty {
		return src
	}
	if src.kind != KindObject || dst.kind != KindObject {
		// A leaf src overwrites whatever dst held; an object src merged onto
		// a leaf dst drops the leaf value (Merge's re-shape-on-assignment
		// semantics). Either way the result equals src, which can be shared.
		return src
	}
	if len(dst.order) == 0 {
		// Merging onto an empty object yields exactly src's contents.
		return src
	}
	// dst's order is shared with its capacity pinned: appending a new name
	// then reallocates instead of scribbling on the shared backing array.
	// The new layer's delta holds only the children src touches — dst's own
	// delta is layered behind it via the cowBase chain, never recopied.
	out := &Node{
		kind:     KindObject,
		order:    dst.order[:len(dst.order):len(dst.order)],
		cowBase:  dst,
		children: make(map[string]*Node, len(src.order)),
	}
	for _, name := range src.order {
		sc := src.lookup(name)
		if existing := dst.lookup(name); existing != nil {
			out.children[name] = MergeCOW(existing, sc)
		} else {
			out.children[name] = sc
			out.order = append(out.order, name)
		}
	}
	out.compact()
	return out
}

// Walk visits every leaf in depth-first insertion order, calling fn with the
// '/'-joined path from n and the leaf node. Returning false from fn stops
// the walk early.
func (n *Node) Walk(fn func(path string, leaf *Node) bool) {
	n.WalkBytes(func(p []byte, leaf *Node) bool { return fn(string(p), leaf) })
}

// WalkBytes is Walk without the per-leaf string allocation: path aliases an
// internal buffer that is overwritten as the traversal advances, so callers
// must copy it if they retain it beyond the callback.
func (n *Node) WalkBytes(fn func(path []byte, leaf *Node) bool) {
	if n.kind != KindObject {
		if n.kind != KindEmpty {
			fn(nil, n)
		}
		return
	}
	buf := make([]byte, 0, 64)
	n.walk(buf, fn)
}

func (n *Node) walk(buf []byte, fn func([]byte, *Node) bool) bool {
	for _, name := range n.order {
		mark := len(buf)
		if mark > 0 {
			buf = append(buf, '/')
		}
		buf = append(buf, name...)
		c := n.lookup(name)
		if c.kind == KindObject {
			if !c.walk(buf, fn) {
				return false
			}
		} else if !fn(buf, c) {
			return false
		}
		buf = buf[:mark]
	}
	return true
}

// FirstLeafPath returns the path of the first leaf Walk visits ("" when n
// is itself a leaf or holds none). It is the cluster's shard routing key: a
// multi-leaf publish routes as a unit by its first leaf.
func (n *Node) FirstLeafPath() (path string) {
	n.Walk(func(p string, _ *Node) bool { path = p; return false })
	return path
}

// Leaves returns the paths of every leaf under n in insertion order.
func (n *Node) Leaves() []string {
	var out []string
	n.Walk(func(path string, _ *Node) bool {
		out = append(out, path)
		return true
	})
	return out
}

// NumLeaves counts the leaves under n.
func (n *Node) NumLeaves() int {
	c := 0
	n.Walk(func(string, *Node) bool { c++; return true })
	return c
}

// Equal reports whether two subtrees hold the same structure and values.
// Child order is ignored: two objects are equal when they have the same
// name→subtree mapping.
func (n *Node) Equal(other *Node) bool {
	if n == nil || other == nil {
		return n == other
	}
	if n.kind != other.kind {
		return false
	}
	switch n.kind {
	case KindObject:
		if len(n.order) != len(other.order) {
			return false
		}
		for _, name := range n.order {
			oc := other.lookup(name)
			if oc == nil || !n.lookup(name).Equal(oc) {
				return false
			}
		}
		return true
	case KindInt:
		return n.i == other.i
	case KindFloat:
		return n.f == other.f
	case KindString:
		return n.s == other.s
	case KindBool:
		return n.b == other.b
	case KindIntArray:
		if len(n.ia) != len(other.ia) {
			return false
		}
		for i := range n.ia {
			if n.ia[i] != other.ia[i] {
				return false
			}
		}
		return true
	case KindFloatArray:
		if len(n.fa) != len(other.fa) {
			return false
		}
		for i := range n.fa {
			if n.fa[i] != other.fa[i] {
				return false
			}
		}
		return true
	default:
		return true
	}
}

// Diff returns the leaf paths at which n and other disagree (missing on
// either side or different values), sorted lexically. Useful in tests and in
// the service's deduplication path.
func (n *Node) Diff(other *Node) []string {
	seen := map[string]bool{}
	var out []string
	n.Walk(func(path string, leaf *Node) bool {
		o, ok := other.Get(path)
		if !ok || !leaf.Equal(o) {
			out = append(out, path)
		}
		seen[path] = true
		return true
	})
	other.Walk(func(path string, _ *Node) bool {
		if !seen[path] {
			out = append(out, path)
		}
		return true
	})
	sort.Strings(out)
	return out
}

// Format renders the subtree as an indented, YAML-like listing matching the
// style of the paper's Listings 1 and 2. Intended for logs and examples.
func (n *Node) Format() string {
	var sb strings.Builder
	n.format(&sb, 0, "")
	return sb.String()
}

func (n *Node) format(sb *strings.Builder, depth int, name string) {
	indent := strings.Repeat("  ", depth)
	if name != "" {
		sb.WriteString(indent)
		sb.WriteString(name)
		sb.WriteString(":")
	}
	switch n.kind {
	case KindObject:
		if name != "" {
			sb.WriteString("\n")
		}
		for _, cn := range n.order {
			n.lookup(cn).format(sb, depth+1, cn)
		}
	case KindEmpty:
		sb.WriteString(" ~\n")
	default:
		fmt.Fprintf(sb, " %v\n", n.Value())
	}
}

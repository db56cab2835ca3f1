package conduit

import (
	"bytes"
	"errors"
	"math"
	"testing"
)

// FuzzDecodeBatch feeds arbitrary bytes through the batch decoder. The
// decoder must never panic, and anything it accepts must re-encode to a
// frame that decodes to the same entries (the decode → encode → decode
// fixpoint). Every accepted entry's WalkNumeric leaves must equal the
// numeric leaves of DecodeBinary+WalkBytes, except that an entry repeating
// a sibling name must be refused with ErrDuplicateName (the caller's cue to
// decode instead), and its byte-level routing key must equal the decoded
// tree's FirstLeafPath.
func FuzzDecodeBatch(f *testing.F) {
	// Valid frames: empty batch, one entry, a multi-namespace run.
	f.Add(AppendBatchHeader(nil))
	one := AppendBatchEntry(AppendBatchHeader(nil), "workflow", sampleTree(1))
	f.Add(one)
	multi := AppendBatchHeader(nil)
	for i, ns := range []string{"workflow", "workflow", "hardware", "performance"} {
		multi = AppendBatchEntry(multi, ns, sampleTree(i))
	}
	f.Add(multi)
	// Reshape seed: one path flips object→leaf→object across entries, the
	// sequence the cached wire-merge must invalidate its memo through.
	reshape := AppendBatchHeader(nil)
	ra := NewNode()
	ra.SetInt("m/x/y", 1)
	rb := NewNode()
	rb.SetString("m/x", "flat")
	rc := NewNode()
	rc.SetInt("m/x/z", 2)
	for _, n := range []*Node{ra, rb, rc} {
		reshape = AppendBatchEntry(reshape, "workflow", n)
	}
	f.Add(reshape)
	// Hostile seeds: truncations, corrupt length, corrupt magic.
	f.Add(multi[:len(multi)-3])
	f.Add(multi[:7])
	corrupt := append([]byte(nil), one...)
	corrupt[6] = 0xFF
	f.Add(corrupt)
	badMagic := append([]byte(nil), one...)
	badMagic[0] = 'X'
	f.Add(badMagic)
	// Leaf-walk seeds: a root leaf, empty names, non-numeric leaves between
	// numeric ones, and hand-built duplicate sibling names (honest encoders
	// never emit them) — flat, nested, in a wide object, and with an
	// overlong length prefix.
	mixed := NewNode()
	mixed.SetFloat("a/x", 1.5)
	mixed.SetString("a/s", "str")
	mixed.SetIntArray("a/ia", []int64{1, 2})
	mixed.SetInt("a/y", -3)
	mixed.SetBool("b", true)
	root := NewNode()
	root.SetInt("", 7)
	leafOnly := NewNode()
	leafOnly.SetFloat("v", 2)
	leafBatch := AppendBatchHeader(nil)
	leafBatch = AppendBatchEntry(leafBatch, "workflow", mixed)
	leafBatch = AppendBatchEntry(leafBatch, "workflow", leafOnly.Child("v"))
	leafBatch = AppendBatchEntry(leafBatch, "hardware", root)
	leafBatch = AppendBatchEntryEncoded(leafBatch, "hardware", emptyNameFrame())
	f.Add(leafBatch)
	for _, enc := range dupNameFrames() {
		f.Add(AppendBatchEntryEncoded(AppendBatchHeader(nil), "workflow", enc))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		entries, err := DecodeBatch(data)
		scanned := 0
		// Cumulative accumulators across the frame's entries: the cached
		// wire-merge must agree with tree Merge even when entries reshape
		// paths the cache has memoized (object→leaf→object flips are the
		// stale-pointer hunting ground).
		accCached, accPlain := NewNode(), NewNode()
		var mc MergeCache
		scanErr := ForEachBatchEntry(data, func(ns, enc []byte) error {
			// Anything the full decoder accepts, the validating scan must
			// accept too — the raw ingest path depends on that agreement.
			if err == nil {
				if scanned >= len(entries) {
					t.Fatalf("scan found more entries than DecodeBatch (%d)", len(entries))
				}
				if string(ns) != entries[scanned].NS {
					t.Fatalf("entry %d ns: scan %q vs decode %q", scanned, ns, entries[scanned].NS)
				}
				if verr := ValidateBinary(enc); verr != nil {
					t.Fatalf("entry %d validated false negative: %v", scanned, verr)
				}
				merged := NewNode()
				if merr := MergeBinaryInto(merged, enc); merr != nil {
					t.Fatalf("entry %d wire-merge failed on validated bytes: %v", scanned, merr)
				}
				want := NewNode()
				want.Merge(entries[scanned].Tree)
				if !bytes.Equal(merged.EncodeBinary(), want.EncodeBinary()) {
					t.Fatalf("entry %d: MergeBinaryInto differs from Merge of decoded tree", scanned)
				}
				checkWalkNumeric(t, scanned, enc, entries[scanned].Tree)
				if key, kerr := FirstLeafPathBinary(enc); kerr != nil || key != entries[scanned].Tree.FirstLeafPath() {
					t.Fatalf("entry %d: routing key %q (err %v), decoded tree's first leaf %q",
						scanned, key, kerr, entries[scanned].Tree.FirstLeafPath())
				}
				if merr := MergeBinaryIntoCached(accCached, enc, &mc); merr != nil {
					t.Fatalf("entry %d cached wire-merge failed on validated bytes: %v", scanned, merr)
				}
				accPlain.Merge(entries[scanned].Tree)
				if !bytes.Equal(accCached.EncodeBinary(), accPlain.EncodeBinary()) {
					t.Fatalf("entry %d: cumulative cached wire-merge diverged from Merge", scanned)
				}
			}
			scanned++
			return nil
		})
		if err != nil {
			return
		}
		if scanErr != nil {
			t.Fatalf("scan rejected a frame DecodeBatch accepted: %v", scanErr)
		}
		if scanned != len(entries) {
			t.Fatalf("scan found %d entries, decode found %d", scanned, len(entries))
		}
		re := AppendBatchHeader(nil)
		for _, e := range entries {
			re = AppendBatchEntry(re, e.NS, e.Tree)
		}
		again, err := DecodeBatch(re)
		if err != nil {
			t.Fatalf("re-decode of re-encoded frame failed: %v", err)
		}
		if len(again) != len(entries) {
			t.Fatalf("re-decode entry count %d, want %d", len(again), len(entries))
		}
		for i := range again {
			if again[i].NS != entries[i].NS {
				t.Fatalf("entry %d ns changed: %q vs %q", i, again[i].NS, entries[i].NS)
			}
			if !bytes.Equal(again[i].Tree.EncodeBinary(), entries[i].Tree.EncodeBinary()) {
				t.Fatalf("entry %d tree changed across re-encode", i)
			}
		}
	})
}

// numLeaf is one numeric leaf as a walk reports it.
type numLeaf struct {
	path string
	bits uint64
}

// checkWalkNumeric asserts WalkNumeric's contract on one accepted entry:
// the decoded tree's numeric leaves, in order, when no object repeats a
// sibling name; ErrDuplicateName and no callback when one does.
func checkWalkNumeric(t *testing.T, i int, enc []byte, tree *Node) {
	t.Helper()
	var got []numLeaf
	_, err := WalkNumeric(enc, nil, func(p []byte, v float64) {
		got = append(got, numLeaf{string(p), math.Float64bits(v)})
	})
	if hasDupNames(enc) {
		if !errors.Is(err, ErrDuplicateName) || len(got) != 0 {
			t.Fatalf("entry %d repeats a sibling name: WalkNumeric err %v after %d leaves, want ErrDuplicateName and none", i, err, len(got))
		}
		return
	}
	if err != nil {
		t.Fatalf("entry %d: WalkNumeric refused a decodable frame: %v", i, err)
	}
	var want []numLeaf
	tree.WalkBytes(func(p []byte, leaf *Node) bool {
		switch leaf.Kind() {
		case KindInt:
			v, _ := leaf.Int("")
			want = append(want, numLeaf{string(p), math.Float64bits(float64(v))})
		case KindFloat:
			v, _ := leaf.Float("")
			want = append(want, numLeaf{string(p), math.Float64bits(v)})
		}
		return true
	})
	if len(got) != len(want) {
		t.Fatalf("entry %d: WalkNumeric %d leaves, tree walk %d", i, len(got), len(want))
	}
	for k := range got {
		if got[k] != want[k] {
			t.Fatalf("entry %d leaf %d: WalkNumeric %+v, tree walk %+v", i, k, got[k], want[k])
		}
	}
}

// hasDupNames is the reference duplicate check: it parses a decodable tree
// frame and reports whether any object repeats a sibling name.
func hasDupNames(enc []byte) bool {
	r := binReader{data: enc, pos: 4}
	var walk func() bool
	walk = func() bool {
		if Kind(r.data[r.pos]) != KindObject {
			_ = validateNode(&r, 0, false)
			return false
		}
		r.pos++
		count, _ := r.uvarint()
		seen := map[string]bool{}
		dup := false
		for i := uint64(0); i < count; i++ {
			name, _ := r.str()
			dup = seen[name] || dup
			seen[name] = true
			dup = walk() || dup
		}
		return dup
	}
	return walk()
}

// objFrame starts a tree frame whose root object has count children.
func objFrame(count int) []byte {
	return appendUvarint(append(append([]byte(nil), binMagic[:]...), byte(KindObject)), uint64(count))
}

// intLeaf appends one int child named name.
func intLeaf(b []byte, name string, v int64) []byte {
	return appendVarint(append(appendString(b, name), byte(KindInt)), v)
}

// emptyNameFrame hand-builds {"": {"": 1, "b": 2}, "c": {"": 3}}: empty
// names, which the path API never creates, join like Node.walk joins them
// (no '/' after an empty prefix), giving paths "", "b" and "c/".
func emptyNameFrame() []byte {
	b := append(appendString(objFrame(2), ""), byte(KindObject))
	b = intLeaf(intLeaf(appendUvarint(b, 2), "", 1), "b", 2)
	b = append(appendString(b, "c"), byte(KindObject))
	return intLeaf(appendUvarint(b, 1), "", 3)
}

// dupNameFrames hand-builds tree frames whose objects repeat a sibling name.
func dupNameFrames() [][]byte {
	flat := intLeaf(intLeaf(objFrame(2), "a", 1), "a", 2)
	// {m: {x: 1, x: {y: 2}}}: the duplicate is one level down.
	nested := append(appendString(objFrame(1), "m"), byte(KindObject))
	nested = appendUvarint(nested, 2)
	nested = intLeaf(nested, "x", 1)
	nested = appendUvarint(append(appendString(nested, "x"), byte(KindObject)), 1)
	nested = intLeaf(nested, "y", 2)
	// {a: {}, b: 1, a: {y: 2}}: the merge makes a/y the first leaf, where
	// wire order would reach b first.
	reorder := appendUvarint(append(appendString(objFrame(3), "a"), byte(KindObject)), 0)
	reorder = intLeaf(reorder, "b", 1)
	reorder = appendUvarint(append(appendString(reorder, "a"), byte(KindObject)), 1)
	reorder = intLeaf(reorder, "y", 2)
	// More children than the validator's on-stack name buffer holds.
	wide := objFrame(12)
	for i := 0; i < 11; i++ {
		wide = intLeaf(wide, string(rune('a'+i)), int64(i))
	}
	wide = intLeaf(wide, "c", 99)
	// The second "a" carries an overlong (two-byte) length prefix.
	overlong := intLeaf(objFrame(2), "a", 1)
	overlong = appendVarint(append(append(overlong, 0x81, 0x00, 'a'), byte(KindInt)), 2)
	return [][]byte{flat, nested, wide, overlong, reorder}
}

// TestWalkNumericNoAlloc pins the walk's zero-allocation contract once its
// path buffer has grown.
func TestWalkNumericNoAlloc(t *testing.T) {
	n := NewNode()
	for i := 0; i < 6; i++ {
		n.SetFloat("PROC/cn0001/"+string(rune('a'+i)), float64(i))
	}
	n.SetString("PROC/cn0001/state", "ok")
	enc := n.EncodeBinary()
	buf := make([]byte, 0, 64)
	var sum float64
	fn := func(_ []byte, v float64) { sum += v }
	if allocs := testing.AllocsPerRun(100, func() {
		buf, _ = WalkNumeric(enc, buf, fn)
	}); allocs != 0 {
		t.Fatalf("WalkNumeric allocated %.1f times per walk", allocs)
	}
	if sum == 0 {
		t.Fatal("walk reported no leaves")
	}
}

func TestWalkNumericEmptyNames(t *testing.T) {
	var got []string
	if _, err := WalkNumeric(emptyNameFrame(), nil, func(p []byte, _ float64) { got = append(got, string(p)) }); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != "" || got[1] != "b" || got[2] != "c/" {
		t.Fatalf("paths = %q, want [\"\" \"b\" \"c/\"]", got)
	}
	tree, err := DecodeBinary(emptyNameFrame())
	if err != nil {
		t.Fatal(err)
	}
	checkWalkNumeric(t, 0, emptyNameFrame(), tree)
}

// TestWalkNumericDuplicateNames checks that every hand-built duplicate
// frame decodes (so the fallback can run) and is refused by the walk.
func TestWalkNumericDuplicateNames(t *testing.T) {
	for i, enc := range dupNameFrames() {
		tree, err := DecodeBinary(enc)
		if err != nil {
			t.Fatalf("frame %d does not decode: %v", i, err)
		}
		checkWalkNumeric(t, i, enc, tree)
		if !hasDupNames(enc) {
			t.Fatalf("frame %d has no duplicate name", i)
		}
	}
}

// TestFirstLeafPathBinary pins the routing key on the shapes where wire
// order and tree order could part: an empty object ahead of the first leaf,
// a duplicate name whose merge reorders leaves, a leaf root and a corrupt
// frame.
func TestFirstLeafPathBinary(t *testing.T) {
	skip := appendUvarint(append(appendString(objFrame(2), "e"), byte(KindObject)), 0)
	skip = appendUvarint(append(appendString(skip, "x"), byte(KindObject)), 1)
	skip = intLeaf(skip, "y", 1)
	dups := dupNameFrames()
	for _, tc := range []struct {
		enc  []byte
		want string
	}{
		{skip, "x/y"},
		{dups[len(dups)-1], "a/y"},
		{NewNode().EncodeBinary(), ""},
		{emptyNameFrame(), ""},
	} {
		tree, err := DecodeBinary(tc.enc)
		if err != nil {
			t.Fatal(err)
		}
		got, err := FirstLeafPathBinary(tc.enc)
		if err != nil || got != tc.want || tree.FirstLeafPath() != tc.want {
			t.Errorf("key %q (err %v), tree %q, want %q", got, err, tree.FirstLeafPath(), tc.want)
		}
	}
	if _, err := FirstLeafPathBinary(skip[:len(skip)-1]); err == nil {
		t.Error("truncated frame yielded a routing key")
	}
}

package core

import (
	"bytes"
	"fmt"
	"maps"
	"slices"
	"sort"
)

// Tree is the BlockTree bt = (V_bt, E_bt): a rooted tree of blocks with
// every edge pointing back toward the genesis block. The zero value is
// not usable; construct with NewTree.
//
// Tree offers two mutation layers:
//
//   - Attach(b): the replica-level update operation of Section 4.2 —
//     insert a block under an arbitrary existing parent (this is how
//     forks arise);
//   - the BT-ADT append()/read() of Definition 3.1 lives in the adt and
//     refine packages, built on top of Attach and a Selector.
//
// Blocks are indexed densely: the one string-keyed map, index, gives
// each block a dense ID (its attach order, genesis 0), and every other
// index is a slice over those IDs, so a parent always has a smaller
// dense ID than its children. Attach maintains, in O(1) plus one short
// sibling-list insertion:
//
//   - the leaf set, a dense-ID list with swap-remove positions;
//   - the maximum fork degree;
//   - per block, the chain weight of the root-to-block chain excluding
//     genesis (chainWeight[b] = chainWeight[parent] + b.Weight, so
//     chainWeight[leaf] = WeightScore of ChainTo(leaf));
//   - the longest head (highest leaf) and the heaviest head (leaf of
//     largest chain weight), both with the larger-ID tiebreak. A new
//     block is always a leaf, and the only leaf it can remove is its
//     parent, which it strictly beats (height +1, weight >= 1), so each
//     head is either kept or replaced by the new block.
//
// The subtree weights GHOST needs are built lazily, in one O(n) pass on
// the first SubtreeWeight query, and maintained incrementally (O(depth)
// per Attach) from then on, so attach-heavy runs under the other
// selectors never pay for them. LongestChain, HeaviestChain and
// SingleChain therefore select in O(1) and materialize only the winning
// chain.
//
// Tree is not safe for concurrent use; each simulated process owns its
// replica (internal/replica), and shared-memory experiments wrap it.
type Tree struct {
	root *Block
	// index maps a block ID to its dense ID.
	index map[BlockID]int32
	// The slices below are indexed by dense ID.
	blocks      []*Block
	parent      []int32 // dense ID of the parent; -1 for genesis
	chainWeight []int
	// firstChild/nextSibling thread each block's children in ID order;
	// -1 ends a list. nkids counts them.
	firstChild  []int32
	nextSibling []int32
	nkids       []int32
	// leafPos is the block's position in leaves, or -1 for an inner block.
	leafPos []int32
	leaves  []int32
	// subtreeWeight is, per block, the total weight of the subtree
	// rooted there (GHOST); nil until the first SubtreeWeight query.
	subtreeWeight []int

	maxFork int
	// longest and heaviest are the dense IDs of the maintained heads.
	longest, heaviest int32
}

// NewTree returns a BlockTree containing only the genesis block b0.
func NewTree() *Tree {
	g := Genesis()
	return &Tree{
		root:        g,
		index:       map[BlockID]int32{g.ID: 0},
		blocks:      []*Block{g},
		parent:      []int32{-1},
		chainWeight: []int{0},
		firstChild:  []int32{-1},
		nextSibling: []int32{-1},
		nkids:       []int32{0},
		leafPos:     []int32{0},
		leaves:      []int32{0},
	}
}

// Root returns the genesis block.
func (t *Tree) Root() *Block { return t.root }

// Len returns the number of blocks in the tree, genesis included.
func (t *Tree) Len() int { return len(t.blocks) }

// Block returns the block with the given ID, or nil if absent.
func (t *Tree) Block(id BlockID) *Block {
	if i, ok := t.index[id]; ok {
		return t.blocks[i]
	}
	return nil
}

// Has reports whether the tree contains a block with the given ID.
func (t *Tree) Has(id BlockID) bool { _, ok := t.index[id]; return ok }

// Attach inserts block b under its parent. It returns an error if the
// parent is unknown, the height is inconsistent, the weight is below 1,
// or a different block with the same ID is already present — Parent,
// Height, Weight and Payload must all match the attached copy, so a
// re-weighted twin (Block.WithWeight keeps the ID) cannot silently
// corrupt the weight caches. Attaching an identical block twice is
// idempotent (duplicate delivery in the network simulator).
func (t *Tree) Attach(b *Block) error {
	if b == nil {
		return fmt.Errorf("core: attach nil block")
	}
	if b.IsGenesis() {
		return nil // genesis is always present
	}
	if i, ok := t.index[b.ID]; ok {
		existing := t.blocks[i]
		if existing.Parent != b.Parent || existing.Height != b.Height ||
			existing.Weight != b.Weight || !bytes.Equal(existing.Payload, b.Payload) {
			return fmt.Errorf("core: conflicting block %s already attached", b.ID.Short())
		}
		return nil
	}
	if b.Weight < 1 {
		return fmt.Errorf("core: block %s weight %d, want >= 1", b.ID.Short(), b.Weight)
	}
	p, ok := t.index[b.Parent]
	if !ok {
		return fmt.Errorf("core: parent %s of %s not in tree", b.Parent.Short(), b.ID.Short())
	}
	if want := t.blocks[p].Height + 1; b.Height != want {
		return fmt.Errorf("core: block %s height %d, want %d", b.ID.Short(), b.Height, want)
	}
	id := int32(len(t.blocks))
	t.index[b.ID] = id
	t.blocks = append(t.blocks, b)
	t.parent = append(t.parent, p)
	t.chainWeight = append(t.chainWeight, t.chainWeight[p]+b.Weight)
	t.firstChild = append(t.firstChild, -1)
	t.nextSibling = append(t.nextSibling, -1)
	t.nkids = append(t.nkids, 0)
	// Keep sibling order deterministic regardless of arrival order so
	// that tie-breaking selectors are reproducible: insert in ID order
	// (sibling lists are short).
	next := &t.firstChild[p]
	for *next >= 0 && t.blocks[*next].ID < b.ID {
		next = &t.nextSibling[*next]
	}
	t.nextSibling[id], *next = *next, id
	t.nkids[p]++
	t.maxFork = max(t.maxFork, int(t.nkids[p]))
	if pos := t.leafPos[p]; pos >= 0 {
		last := t.leaves[len(t.leaves)-1]
		t.leaves[pos] = last
		t.leafPos[last] = pos
		t.leaves = t.leaves[:len(t.leaves)-1]
		t.leafPos[p] = -1
	}
	t.leafPos = append(t.leafPos, int32(len(t.leaves)))
	t.leaves = append(t.leaves, id)
	if head := t.blocks[t.longest]; b.Height > head.Height || (b.Height == head.Height && b.ID > head.ID) {
		t.longest = id
	}
	if hw := t.chainWeight[t.heaviest]; t.chainWeight[id] > hw ||
		(t.chainWeight[id] == hw && b.ID > t.blocks[t.heaviest].ID) {
		t.heaviest = id
	}
	if t.subtreeWeight != nil {
		t.subtreeWeight = append(t.subtreeWeight, b.Weight)
		for a := p; a >= 0; a = t.parent[a] {
			t.subtreeWeight[a] += b.Weight
		}
	}
	return nil
}

// head returns the block with dense ID i, or nil for a zero-value tree
// that holds no blocks.
func (t *Tree) head(i int32) *Block {
	if len(t.blocks) == 0 {
		return nil
	}
	return t.blocks[i]
}

// Children returns the IDs of the blocks chaining to id, in lexicographic
// order (deterministic), as a fresh slice.
func (t *Tree) Children(id BlockID) []BlockID {
	i, ok := t.index[id]
	if !ok || t.nkids[i] == 0 {
		return nil
	}
	out := make([]BlockID, 0, t.nkids[i])
	for c := t.firstChild[i]; c >= 0; c = t.nextSibling[c] {
		out = append(out, t.blocks[c].ID)
	}
	return out
}

// ForkCount returns the number of children of id — the number of branches
// (forks) rooted at that block, the quantity bounded by the frugal oracle.
func (t *Tree) ForkCount(id BlockID) int {
	if i, ok := t.index[id]; ok {
		return int(t.nkids[i])
	}
	return 0
}

// MaxForkDegree returns the largest number of branches from any single
// block in the tree, O(1); 1 (or 0 for a bare genesis) means the tree is
// a chain. Used to verify k-Fork Coherence empirically.
func (t *Tree) MaxForkDegree() int { return t.maxFork }

// SubtreeWeight returns the total weight of the subtree rooted at id
// (the block's own weight included), or 0 for an absent block. Used by
// the GHOST selector. The first query builds the whole index in one
// O(n) pass and activates incremental maintenance.
func (t *Tree) SubtreeWeight(id BlockID) int {
	i, ok := t.index[id]
	if !ok {
		return 0
	}
	return t.subtreeWeights()[i]
}

// subtreeWeights returns the subtree-weight index, building it on first
// use: children have larger dense IDs than their parents, so one
// descending pass folds every subtree into its parent.
func (t *Tree) subtreeWeights() []int {
	if t.subtreeWeight == nil {
		sw := make([]int, len(t.blocks))
		for i, b := range t.blocks {
			sw[i] = b.Weight
		}
		for i := len(sw) - 1; i > 0; i-- {
			sw[t.parent[i]] += sw[i]
		}
		t.subtreeWeight = sw
	}
	return t.subtreeWeight
}

// ChainWeight returns the cumulative weight of the chain from genesis to
// id, genesis excluded — exactly WeightScore{}.Of(t.ChainTo(id)) without
// materializing the chain. Returns 0 for genesis or an absent block.
func (t *Tree) ChainWeight(id BlockID) int {
	if i, ok := t.index[id]; ok {
		return t.chainWeight[i]
	}
	return 0
}

// LeafCount returns the number of leaves without allocating.
func (t *Tree) LeafCount() int { return len(t.leaves) }

// Leaves returns the IDs of all leaves, in lexicographic order. The cost
// is O(#leaves log #leaves), independent of the tree size.
func (t *Tree) Leaves() []BlockID {
	out := make([]BlockID, len(t.leaves))
	for i, l := range t.leaves {
		out[i] = t.blocks[l].ID
	}
	slices.Sort(out)
	return out
}

// ChainTo returns the blockchain {b0}⌢...⌢{b_id}, or nil if id is not in
// the tree. This is the path from the leaf back to the root, reversed to
// root-first order.
func (t *Tree) ChainTo(id BlockID) Chain {
	i, ok := t.index[id]
	if !ok {
		return nil
	}
	out := make(Chain, t.blocks[i].Height+1)
	for k := len(out) - 1; k >= 0; k-- {
		out[k] = t.blocks[i]
		i = t.parent[i]
	}
	return out
}

// Height returns the maximum block height present in the tree, O(1):
// the highest block has no child, so it is the longest head.
func (t *Tree) Height() int {
	if len(t.blocks) == 0 {
		return 0
	}
	return t.blocks[t.longest].Height
}

// Blocks returns every block in the tree in (height, ID) order.
// The genesis block comes first.
func (t *Tree) Blocks() []*Block {
	out := slices.Clone(t.blocks)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Height != out[j].Height {
			return out[i].Height < out[j].Height
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// Clone returns a deep copy of the tree structure, indices included
// (block pointers are shared; blocks are immutable).
func (t *Tree) Clone() *Tree {
	nt := *t
	nt.index = maps.Clone(t.index)
	nt.blocks = slices.Clone(t.blocks)
	nt.parent = slices.Clone(t.parent)
	nt.chainWeight = slices.Clone(t.chainWeight)
	nt.firstChild = slices.Clone(t.firstChild)
	nt.nextSibling = slices.Clone(t.nextSibling)
	nt.nkids = slices.Clone(t.nkids)
	nt.leafPos = slices.Clone(t.leafPos)
	nt.leaves = slices.Clone(t.leaves)
	nt.subtreeWeight = slices.Clone(t.subtreeWeight)
	return &nt
}

// String summarizes the tree, e.g. "tree(7 blocks, height 4, maxfork 2)".
func (t *Tree) String() string {
	return fmt.Sprintf("tree(%d blocks, height %d, maxfork %d)", t.Len(), t.Height(), t.MaxForkDegree())
}

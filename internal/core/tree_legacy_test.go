package core

import (
	"bytes"
	"fmt"
	"sort"
)

// legacyTree is the map-based BlockTree as it was before the dense
// index: five string-keyed maps (blocks, children, leaves, chain
// weights, lazily built subtree weights) updated on every Attach. It is
// unexported and exists only as the differential oracle for Tree
// (FuzzTreeIndices replays every schedule into both and compares them).
// Do not "optimize" it — its value is being the obvious spec.
type legacyTree struct {
	blocks        map[BlockID]*Block
	children      map[BlockID][]BlockID
	subtreeWeight map[BlockID]int
	ghostActive   bool
	leaves        map[BlockID]struct{}
	maxHeight     int
	chainWeight   map[BlockID]int
}

func newLegacyTree() *legacyTree {
	g := Genesis()
	return &legacyTree{
		blocks:      map[BlockID]*Block{g.ID: g},
		children:    make(map[BlockID][]BlockID),
		leaves:      map[BlockID]struct{}{g.ID: {}},
		chainWeight: map[BlockID]int{g.ID: 0},
	}
}

// Attach is the original Tree.Attach, plus the weight >= 1 contract.
func (t *legacyTree) Attach(b *Block) error {
	if b == nil {
		return fmt.Errorf("core: attach nil block")
	}
	if b.IsGenesis() {
		return nil
	}
	if existing, ok := t.blocks[b.ID]; ok {
		if existing.Parent != b.Parent || existing.Height != b.Height ||
			existing.Weight != b.Weight || !bytes.Equal(existing.Payload, b.Payload) {
			return fmt.Errorf("core: conflicting block %s already attached", b.ID.Short())
		}
		return nil
	}
	if b.Weight < 1 {
		return fmt.Errorf("core: block %s weight %d, want >= 1", b.ID.Short(), b.Weight)
	}
	parent, ok := t.blocks[b.Parent]
	if !ok {
		return fmt.Errorf("core: parent %s of %s not in tree", b.Parent.Short(), b.ID.Short())
	}
	if b.Height != parent.Height+1 {
		return fmt.Errorf("core: block %s height %d, want %d", b.ID.Short(), b.Height, parent.Height+1)
	}
	t.blocks[b.ID] = b
	kids := append(t.children[b.Parent], b.ID)
	for i := len(kids) - 1; i > 0 && kids[i-1] > b.ID; i-- {
		kids[i], kids[i-1] = kids[i-1], kids[i]
	}
	t.children[b.Parent] = kids
	delete(t.leaves, b.Parent)
	t.leaves[b.ID] = struct{}{}
	if b.Height > t.maxHeight {
		t.maxHeight = b.Height
	}
	t.chainWeight[b.ID] = t.chainWeight[b.Parent] + b.Weight
	if t.ghostActive {
		t.subtreeWeight[b.ID] = b.Weight
		for p := b.Parent; p != ""; {
			t.subtreeWeight[p] += b.Weight
			p = t.blocks[p].Parent
		}
	}
	return nil
}

func (t *legacyTree) Children(id BlockID) []BlockID { return t.children[id] }

func (t *legacyTree) ChainWeight(id BlockID) int { return t.chainWeight[id] }

func (t *legacyTree) SubtreeWeight(id BlockID) int {
	if !t.ghostActive {
		t.subtreeWeight = make(map[BlockID]int, len(t.blocks))
		blocks := make([]*Block, 0, len(t.blocks))
		for _, b := range t.blocks {
			blocks = append(blocks, b)
		}
		sort.Slice(blocks, func(i, j int) bool { return blocks[i].Height > blocks[j].Height })
		for _, b := range blocks {
			t.subtreeWeight[b.ID] += b.Weight
			if !b.IsGenesis() {
				t.subtreeWeight[b.Parent] += t.subtreeWeight[b.ID]
			}
		}
		t.ghostActive = true
	}
	return t.subtreeWeight[id]
}

func (t *legacyTree) Leaves() []BlockID {
	out := make([]BlockID, 0, len(t.leaves))
	for id := range t.leaves {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (t *legacyTree) Blocks() []*Block {
	out := make([]*Block, 0, len(t.blocks))
	for _, b := range t.blocks {
		out = append(out, b)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Height != out[j].Height {
			return out[i].Height < out[j].Height
		}
		return out[i].ID < out[j].ID
	})
	return out
}

package core

// Topology defines self-relative addressing over a VM's vp-vector, the
// facility that lets systolic-style programs name left-vp, right-vp, up-vp
// and so on, and lets algorithms defined in terms of processor topologies
// (§3.2) place communicating threads on topologically near VPs. The
// substrate provides the common topologies; applications may implement
// their own.
type Topology interface {
	// Name identifies the topology.
	Name() string
	// Neighbors returns the VP indices adjacent to index i in a machine of
	// n VPs, in a stable per-topology order.
	Neighbors(i, n int) []int
}

// Ring arranges VPs in a cycle; neighbors are left and right.
type Ring struct{}

// Name implements Topology.
func (Ring) Name() string { return "ring" }

// Neighbors implements Topology.
func (Ring) Neighbors(i, n int) []int {
	if n <= 1 {
		return nil
	}
	left := (i - 1 + n) % n
	right := (i + 1) % n
	if left == right {
		return []int{left}
	}
	return []int{left, right}
}

// Mesh arranges VPs in a Cols-wide grid; neighbors are left, right, up,
// down (no wraparound).
type Mesh struct{ Cols int }

// Name implements Topology.
func (m Mesh) Name() string { return "mesh" }

// Neighbors implements Topology.
func (m Mesh) Neighbors(i, n int) []int {
	cols := m.Cols
	if cols <= 0 {
		cols = 1
	}
	var out []int
	r, c := i/cols, i%cols
	add := func(rr, cc int) {
		j := rr*cols + cc
		if rr >= 0 && cc >= 0 && cc < cols && j < n && j != i {
			out = append(out, j)
		}
	}
	add(r, c-1)
	add(r, c+1)
	add(r-1, c)
	add(r+1, c)
	return out
}

// Torus is a mesh with wraparound in both dimensions.
type Torus struct{ Cols int }

// Name implements Topology.
func (t Torus) Name() string { return "torus" }

// Neighbors implements Topology.
func (t Torus) Neighbors(i, n int) []int {
	cols := t.Cols
	if cols <= 0 {
		cols = 1
	}
	rows := (n + cols - 1) / cols
	if rows == 0 {
		return nil
	}
	r, c := i/cols, i%cols
	seen := map[int]bool{i: true}
	var out []int
	add := func(rr, cc int) {
		rr = (rr + rows) % rows
		cc = (cc + cols) % cols
		j := rr*cols + cc
		if j < n && !seen[j] {
			seen[j] = true
			out = append(out, j)
		}
	}
	add(r, c-1)
	add(r, c+1)
	add(r-1, c)
	add(r+1, c)
	return out
}

// Hypercube connects VP i to every index differing in one bit. n is
// rounded down to a power of two; indices beyond it have no neighbors.
type Hypercube struct{}

// Name implements Topology.
func (Hypercube) Name() string { return "hypercube" }

// Neighbors implements Topology.
func (Hypercube) Neighbors(i, n int) []int {
	dim := 0
	for (1 << (dim + 1)) <= n {
		dim++
	}
	size := 1 << dim
	if i >= size {
		return nil
	}
	var out []int
	for b := 0; b < dim; b++ {
		out = append(out, i^(1<<b))
	}
	return out
}

// SystolicArray is a linear array without wraparound: interior VPs have a
// left and a right neighbor; the ends have one.
type SystolicArray struct{}

// Name implements Topology.
func (SystolicArray) Name() string { return "systolic-array" }

// Neighbors implements Topology.
func (SystolicArray) Neighbors(i, n int) []int {
	var out []int
	if i-1 >= 0 {
		out = append(out, i-1)
	}
	if i+1 < n {
		out = append(out, i+1)
	}
	return out
}

// Self-relative addressing modes over the current VP, mirroring the
// paper's left-vp / right-vp / up-vp forms.

// LeftVP returns the VP preceding vp in its topology's neighbor order
// (the first neighbor), or vp itself when it has none.
func LeftVP(vp *VP) *VP {
	ns := neighbors(vp)
	if len(ns) == 0 {
		return vp
	}
	return ns[0]
}

// RightVP returns the second neighbor (or the first when only one exists).
func RightVP(vp *VP) *VP {
	ns := neighbors(vp)
	switch len(ns) {
	case 0:
		return vp
	case 1:
		return ns[0]
	default:
		return ns[1]
	}
}

// UpVP returns the third neighbor (meaningful on meshes and tori).
func UpVP(vp *VP) *VP {
	ns := neighbors(vp)
	if len(ns) < 3 {
		return vp
	}
	return ns[2]
}

// DownVP returns the fourth neighbor (meaningful on meshes and tori).
func DownVP(vp *VP) *VP {
	ns := neighbors(vp)
	if len(ns) < 4 {
		return vp
	}
	return ns[3]
}

// NeighborVPs returns all VPs adjacent to vp under its VM's topology.
func NeighborVPs(vp *VP) []*VP { return neighbors(vp) }

func neighbors(vp *VP) []*VP {
	vm := vp.vm
	vps := vm.vpVector()
	idx := vm.topology.Neighbors(vp.index, len(vps))
	out := make([]*VP, 0, len(idx))
	for _, i := range idx {
		if i >= 0 && i < len(vps) {
			out = append(out, vps[i])
		}
	}
	return out
}

// Package hotalloc is a golden-test fixture for the hotalloc analyzer:
// allocation sites inside a //earmac:hotpath closure, in flagged,
// exempt, and waived forms. The `// want` comments are matched by
// analysis.RunTest.
package hotalloc

import "fmt"

type point struct{ x, y int }

// Hot is a hot-path root: it and every same-package function it
// statically calls must not allocate.
//
//earmac:hotpath
func Hot(buf []int, n int) []int {
	s := fmt.Sprintf("%d", n) // want `fmt.Sprintf allocates`
	_ = s
	m := make([]int, n) // want `make allocates`
	_ = m
	var grow []int
	for i := 0; i < n; i++ {
		grow = append(grow, i) // want `append to unsized slice grow`
	}
	_ = grow
	buf = append(buf, n) // a caller-provided buffer owns its capacity (buffer-reuse contract)
	f := func() { n++ }  // want `func literal allocates a closure`
	f()
	lit := []int{1, 2} // want `slice literal allocates`
	_ = lit
	mm := map[int]int{} // want `map literal allocates`
	_ = mm
	p := &point{x: 1, y: 2} // want `&composite literal allocates`
	_ = p
	v := any(n) // want `conversion to interface type boxes`
	_ = v
	helper(n)
	return buf
}

// helper is hot transitively: Hot calls it.
func helper(n int) {
	_ = fmt.Sprint(n) // want `fmt.Sprint allocates`
}

// cold is not reachable from any hot root, so it may allocate freely.
func cold(n int) string {
	return fmt.Sprintf("%d", n)
}

var _ = cold

// Waived is a hot-path root whose allocations are either exempt (panic
// arguments) or waived with a reasoned //earmac:alloc directive.
//
//earmac:hotpath
func Waived(n int) {
	//earmac:alloc -- one-time sizing, not steady state
	tmp := make([]int, n)
	_ = tmp
	if n < 0 {
		panic(fmt.Sprintf("bad n %d", n)) // panic arguments are exempt: the program is dying
	}
}

// ring is generic: calls between its methods resolve to instantiations,
// which the closure must follow back to their declarations.
type ring[T any] struct{ slots []T }

// Push is a hot-path root on a generic type.
//
//earmac:hotpath
func (r *ring[T]) Push(v T) {
	if len(r.slots) == 0 {
		r.grow()
	}
	r.slots[0] = v
}

// grow is hot transitively through the generic method call.
func (r *ring[T]) grow() {
	r.slots = make([]T, 1) // want `make allocates`
}

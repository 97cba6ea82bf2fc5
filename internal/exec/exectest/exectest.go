// Package exectest builds engine state for tests that drive a policy by
// hand, outside a run.
package exectest

import (
	"maps"
	"slices"

	"pwsr/internal/exec"
)

// View returns a View over the live and finished sets whose Items
// index every item the pending requests name, in request order, then
// every other item lastWriter names, sorted; LastWriter holds
// lastWriter's entries (0 for the rest), and each request's Item is set
// to its name's index, as the engine sets it.
func View(live, finished map[int]bool, lastWriter map[string]int, pending ...*exec.Request) *exec.View {
	v := &exec.View{Live: live, Finished: finished}
	index := make(map[string]int32)
	add := func(name string) int32 {
		id, ok := index[name]
		if !ok {
			id = int32(len(v.Items))
			index[name] = id
			v.Items, v.LastWriter = append(v.Items, name), append(v.LastWriter, lastWriter[name])
		}
		return id
	}
	for _, r := range pending {
		r.Item = add(r.Entity)
	}
	for _, name := range slices.Sorted(maps.Keys(lastWriter)) {
		add(name)
	}
	return v
}

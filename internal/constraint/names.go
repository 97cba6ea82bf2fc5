package constraint

import "strings"

// Names numbers the distinct names of one transaction program, 1, 2, …
// in order of first occurrence: the slots its Var leaves carry. The zero
// value is ready to use and a nil *Names numbers nothing (slot 0), which
// is how constraint formulas are parsed. Lookup is a linear scan —
// programs have tens of names, and no hashing beats that — so a Names
// must not be copied after first use (list points into small).
type Names struct {
	list  []string
	small [32]string // backs list until a program has more names
}

// Slot returns name's number, assigning the next one on first sight.
func (n *Names) Slot(name string) int32 {
	if n == nil {
		return 0
	}
	for i, s := range n.list {
		if s == name {
			return int32(i + 1)
		}
	}
	if n.list == nil {
		n.list = n.small[:0]
	}
	n.list = append(n.list, name)
	return int32(len(n.list))
}

// Var returns a fresh variable node for name, numbered by n.
func (n *Names) Var(name string) *Var { return &Var{Name: name, Slot: n.Slot(name)} }

// Len returns how many names have been numbered.
func (n *Names) Len() int { return len(n.list) }

// At returns the spelling of a slot Slot returned.
func (n *Names) At(slot int32) string { return n.list[slot-1] }

// Intern moves every numbered name, and extra, into one freshly
// allocated backing string and returns extra's new spelling; At serves
// the new spellings from then on. Names cut out of a source text keep
// the whole text alive; interned ones keep only their own bytes.
func (n *Names) Intern(extra string) string {
	all := strings.Join(append(n.list, extra), "") // n.list itself stays as long as it was
	for i, s := range n.list {
		n.list[i], all = all[:len(s)], all[len(s):]
	}
	return all
}

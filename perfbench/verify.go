package main

import (
	"fmt"

	"picasso"
)

// verifyGroups checks that groups partition the job's strings and that the
// partition is a valid grouping of its set (picasso.VerifyGrouping).
func verifyGroups(set *picasso.PauliSet, groups [][]int) error {
	n := set.Len()
	c := make(picasso.Coloring, n)
	for i := range c {
		c[i] = -1
	}
	for gi, g := range groups {
		for _, v := range g {
			if v < 0 || v >= n {
				return fmt.Errorf("group %d names string %d of %d", gi, v, n)
			}
			if c[v] != -1 {
				return fmt.Errorf("string %d is in groups %d and %d", v, c[v], gi)
			}
			c[v] = int32(gi)
		}
	}
	for v, col := range c {
		if col == -1 {
			return fmt.Errorf("string %d is in no group", v)
		}
	}
	return picasso.VerifyGrouping(set, c)
}

// sameGroups reports whether two answers are equal group for group.
func sameGroups(a, b [][]int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for k := range a[i] {
			if a[i][k] != b[i][k] {
				return false
			}
		}
	}
	return true
}

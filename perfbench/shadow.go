package main

import "bytes"

// The shadows are the host-side record of what the program must return.
// Every read a workload makes is checked against one before any number is
// reported; a mismatch counts as a failed op.

// wordShadow holds the last 8-byte value stored to each page's probe
// word (the simulator workloads touch one word per page).
type wordShadow struct {
	want       []uint64
	mismatches int64
}

func newWordShadow(pages int) *wordShadow { return &wordShadow{want: make([]uint64, pages)} }

func (s *wordShadow) set(page int, v uint64) { s.want[page] = v }

// check reports whether got is the last value stored to page.
func (s *wordShadow) check(page int, got uint64) bool {
	if got != s.want[page] {
		s.mismatches++
		return false
	}
	return true
}

// pageShadow holds a full byte copy of each page a loopback caller owns.
type pageShadow struct {
	want       [][]byte
	mismatches int64
}

func newPageShadow(pages, size int) *pageShadow {
	s := &pageShadow{want: make([][]byte, pages)}
	for i := range s.want {
		s.want[i] = make([]byte, size)
	}
	return s
}

func (s *pageShadow) set(page int, b []byte) { copy(s.want[page], b) }

// check reports whether got holds exactly the bytes last written to page.
func (s *pageShadow) check(page int, got []byte) bool {
	if !bytes.Equal(got, s.want[page]) {
		s.mismatches++
		return false
	}
	return true
}

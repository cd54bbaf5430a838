// Package lib declares nothing the unreferenced analyzer reports, even
// when it is checked alone: the world is loaded whole.
package lib

import "io"

// Used is called by the root package.
func Used() int { return step }

// step is reached through Used.
var step = 1

// List is generic; the root reaches Push through List[int].
type List[T any] struct{ items []T }

// Push appends v.
func (l *List[T]) Push(v T) { l.items = append(l.items, v) }

// Reader can satisfy io.Reader.
type Reader struct{}

// NewReader is called by the root package.
func NewReader() *Reader { return &Reader{} }

// Read implements io.Reader.
func (r *Reader) Read(p []byte) (int, error) { return 0, io.EOF }

// Frames can satisfy the interface the root package spells out inline.
func (r *Reader) Frames() int { return 0 }

// wrapped is the error Wrap returns.
type wrapped struct{ cause error }

// Wrap is called by the root package.
func Wrap(err error) error { return &wrapped{cause: err} }

func (w *wrapped) Error() string { return "wrapped" }

// Unwrap follows the errors package's unnamed contract.
func (w *wrapped) Unwrap() error { return w.cause }

// Oracle is what the package's tests compare against.
// lint:testonly the reference of the package's property tests
func Oracle() int { return step * 2 }

// Keep both in the build for the tests.
// lint:testonly constants the tests name
const (
	A = 1
	B = 2
)

// Blank declarations run at init.
var _ = Used()

func init() { step++ }

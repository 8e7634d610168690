// Package apidocfix seeds violations for the apidoc analyzer: committed
// surface symbols with and without doc comments.
package apidocfix

// Version is documented.
const Version = 1

// Documented carries a doc comment, as every surface symbol must.
func Documented() int { return 0 }

func Undocumented() int { return 1 } // want apidoc

// Thing is documented.
type Thing struct{ Field int }

// Get is a documented surface method.
func (t Thing) Get() int { return t.Field }

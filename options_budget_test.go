package bingo

import (
	"reflect"
	"testing"
)

// optionBudget is the number of independently settable values across the
// serving option structs. It may only fall: a new knob must replace one
// that goes, or become the constant its default was.
const optionBudget = 34

// leafFields counts the settable leaves of a struct type; a nested struct
// counts its own leaves.
func leafFields(t reflect.Type) int {
	n := 0
	for i := 0; i < t.NumField(); i++ {
		if f := t.Field(i).Type; f.Kind() == reflect.Struct {
			n += leafFields(f)
		} else {
			n++
		}
	}
	return n
}

// TestServingOptionBudget is the ratchet on the public serving surface.
func TestServingOptionBudget(t *testing.T) {
	total := 0
	for _, o := range []any{LiveOptions{}, ShardedOptions{}, RemoteOptions{}, ReaderOptions{}, ShardServeOptions{}, CorpusOptions{}} {
		n := leafFields(reflect.TypeOf(o))
		t.Logf("%T: %d", o, n)
		total += n
	}
	if total > optionBudget {
		t.Fatalf("the serving option structs hold %d settable values, budget %d", total, optionBudget)
	}
}

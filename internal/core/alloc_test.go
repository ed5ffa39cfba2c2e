package core_test

import (
	"reflect"
	"testing"

	"multiscalar/internal/core"
	"multiscalar/internal/gen"
)

// TestSelectAllocs bounds the allocations of (*Prepared).Select on the
// small generated programs of /v1/simulate's cold path: seed-1 corpus
// programs 0–15, each prepared once, under the corpus sweep's six arms. A
// count does not depend on the host's speed, so it gates what timing on a
// noisy host cannot. A task's slices are allocated once each, at their
// final size, and selection builds no map.
func TestSelectAllocs(t *testing.T) {
	const limit = 300 // per Select, averaged over the 96
	var preps []*core.Prepared
	for i := 0; i < 16; i++ {
		p, err := core.Prepare(gen.Generate(gen.CorpusParams(1, i)), corpusArms[0].opts)
		if err != nil {
			t.Fatal(err)
		}
		preps = append(preps, p)
	}
	total := 0.0
	for _, arm := range corpusArms {
		n := testing.AllocsPerRun(3, func() {
			for _, p := range preps {
				if _, err := p.Select(arm.opts); err != nil {
					t.Fatal(err)
				}
			}
		})
		t.Logf("%-10s %6.1f allocations per Select", arm.name, n/float64(len(preps)))
		total += n
	}
	if per := total / float64(len(preps)*len(corpusArms)); per > limit {
		t.Errorf("%.1f allocations per Select, want at most %d", per, limit)
	} else {
		t.Logf("%.1f allocations per Select (at most %d)", per, limit)
	}
}

// TestPartitionHoldsNoMap fails if a Task or a Partition gets a map-typed
// field, or a slice or array of maps: selection builds none, and the grid
// memo keeps partitions, so what they hold stays small.
func TestPartitionHoldsNoMap(t *testing.T) {
	for _, typ := range []reflect.Type{reflect.TypeOf(core.Task{}), reflect.TypeOf(core.Partition{})} {
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			ft := f.Type
			for ft.Kind() == reflect.Slice || ft.Kind() == reflect.Array {
				ft = ft.Elem()
			}
			if ft.Kind() == reflect.Map {
				t.Errorf("%s.%s is %s, which holds a map", typ.Name(), f.Name, f.Type)
			}
		}
	}
}

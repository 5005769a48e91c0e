package index

import (
	"errors"
	"math/rand"
	"testing"

	"tind/internal/bloom"
	"tind/internal/core"
)

func TestOptionsValidate(t *testing.T) {
	good := DefaultOptions(200)
	if err := good.Validate(); err != nil {
		t.Fatalf("default options invalid: %v", err)
	}

	bad := []func(o *Options){
		func(o *Options) { o.Bloom = bloom.Params{M: 0, K: 2} },
		func(o *Options) { o.Slices = -1 },
		func(o *Options) { o.ReverseSlices = -2 },
		func(o *Options) { o.Strategy = SliceStrategy(42) },
		func(o *Options) { o.Params = core.Params{Epsilon: -1, Weight: o.Params.Weight} },
	}
	for i, mutate := range bad {
		o := DefaultOptions(200)
		mutate(&o)
		err := o.Validate()
		if !errors.Is(err, ErrInvalidOptions) {
			t.Errorf("mutation %d: err %v, want ErrInvalidOptions", i, err)
		}
	}
}

func TestBuildRejectsInvalidOptions(t *testing.T) {
	ds := randDataset(rand.New(rand.NewSource(21)), 8, 100)
	opt := DefaultOptions(ds.Horizon())
	opt.Slices = -1
	if _, err := Build(ds, opt); !errors.Is(err, ErrInvalidOptions) {
		t.Fatalf("Build with negative slices: err %v, want ErrInvalidOptions", err)
	}

	// Horizon mismatch between the weight function and the dataset is an
	// options error too, not a silent clamp.
	opt = DefaultOptions(ds.Horizon() + 50)
	if _, err := Build(ds, opt); !errors.Is(err, ErrInvalidOptions) {
		t.Fatalf("Build with horizon mismatch: err %v, want ErrInvalidOptions", err)
	}
}

func TestForReverse(t *testing.T) {
	o := DefaultOptions(300).ForReverse()
	if !o.Reverse {
		t.Fatal("ForReverse must set Reverse")
	}
	if o.ReverseSlices != 2 {
		t.Fatalf("ForReverse default reverse slices: %d, want 2", o.ReverseSlices)
	}
	// Explicit values survive.
	o = DefaultOptions(300)
	o.ReverseSlices = 5
	if o = o.ForReverse(); o.ReverseSlices != 5 {
		t.Fatalf("ForReverse clobbered explicit reverse slices: %d", o.ReverseSlices)
	}
	// The Bloom shape and slices are untouched: one index, both directions.
	base := DefaultOptions(300)
	if r := base.ForReverse(); r.Bloom != base.Bloom || r.Slices != base.Slices {
		t.Fatal("ForReverse must not change the index shape")
	}
	// DefaultReverseOptions composes the reverse-tuned shape with ForReverse.
	dr := DefaultReverseOptions(300)
	if !dr.Reverse || dr.ReverseSlices != 2 || dr.Bloom.M != 512 {
		t.Fatalf("DefaultReverseOptions: %+v", dr)
	}
}

func TestDefaultZeroWeightFilled(t *testing.T) {
	// A nil weight function means "paper defaults for this horizon"; Build
	// must fill it rather than reject it.
	ds := randDataset(rand.New(rand.NewSource(22)), 8, 100)
	opt := Options{Bloom: bloom.Params{M: 256, K: 2}, Slices: 2, Strategy: Random}
	x, err := Build(ds, opt)
	if err != nil {
		t.Fatal(err)
	}
	if x.opt.Params.Weight == nil {
		t.Fatal("Build must fill the default weight function")
	}
}

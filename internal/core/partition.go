package core

import "repro/internal/tt"

// Result is the outcome of classifying a function list.
type Result struct {
	// ClassOf[i] is the class id of input i.
	ClassOf []int
	// NumClasses is the number of distinct classes.
	NumClasses int
	// Sizes[id] is the number of inputs in class id.
	Sizes []int
}

// classKey is what buckets a function, Algorithm 1's "hash(MSV)" step:
// its MSV hash, or in strict mode its full key bytes. The unused field is
// zero in every key, so equality is by hash, or by full key in strict
// mode.
type classKey struct {
	hash uint64
	key  string
}

// classKey computes f's bucket key under the classifier's configuration.
func (c *Classifier) classKey(f *tt.TT) classKey {
	if c.cfg.StrictKeys {
		return classKey{key: string(c.KeyBytes(f))}
	}
	return classKey{hash: c.Hash(f)}
}

// bucket assigns dense class ids in first-seen order: input i joins the
// class of the first earlier input with an equal key, or founds the next
// id.
func bucket(keys []classKey) *Result {
	r := &Result{ClassOf: make([]int, len(keys))}
	ids := make(map[classKey]int)
	for i, k := range keys {
		id, ok := ids[k]
		if !ok {
			id = len(ids)
			ids[k] = id
			r.Sizes = append(r.Sizes, 0)
		}
		r.ClassOf[i] = id
		r.Sizes[id]++
	}
	r.NumClasses = len(ids)
	return r
}

// Classify buckets the whole list and returns the dense class assignment.
func (c *Classifier) Classify(fs []*tt.TT) *Result {
	keys := make([]classKey, len(fs))
	for i, f := range fs {
		keys[i] = c.classKey(f)
	}
	return bucket(keys)
}

// NumClasses is a convenience wrapper returning only the class count.
func (c *Classifier) NumClasses(fs []*tt.TT) int {
	return c.Classify(fs).NumClasses
}

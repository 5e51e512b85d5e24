package ml

import (
	"math"
	"math/rand"
	"sort"
)

// DecisionTreeRegressor (R4:DTR) is a CART regression tree: greedy binary
// splits chosen to minimize weighted child variance (equivalently maximize
// variance reduction), grown until leaves are pure or hit the stopping
// parameters. scikit-learn defaults: unlimited depth, min_samples_split=2,
// min_samples_leaf=1, all features considered.
type DecisionTreeRegressor struct {
	// MaxDepth limits tree depth; 0 means unlimited.
	MaxDepth int
	// MinSamplesSplit is the minimum node size eligible for splitting.
	MinSamplesSplit int
	// MinSamplesLeaf is the minimum samples in each child.
	MinSamplesLeaf int
	// MaxFeatures, when in (0,1], subsamples features at each split
	// (random forests use this); 0 or 1 means all features.
	MaxFeatures float64
	// MaxThresholds, when > 0, evaluates at most this many candidate
	// thresholds per feature, taken at quantiles (histogram-style splits,
	// used by the histogram gradient-boosting estimator); 0 means exact
	// search over all midpoints.
	MaxThresholds int
	// Seed drives feature subsampling.
	Seed int64

	root      *treeNode
	nFeatures int
	rng       *rand.Rand
}

type treeNode struct {
	// Leaf payload.
	value float64
	leaf  bool
	// Split payload.
	feature   int
	threshold float64
	left      *treeNode
	right     *treeNode
}

// NewDecisionTreeRegressor creates a CART tree with library defaults.
func NewDecisionTreeRegressor() *DecisionTreeRegressor {
	return &DecisionTreeRegressor{MinSamplesSplit: 2, MinSamplesLeaf: 1, Seed: 42}
}

// Name implements Regressor.
func (r *DecisionTreeRegressor) Name() string { return "DTR" }

// Fit implements Regressor.
func (r *DecisionTreeRegressor) Fit(X [][]float64, y []float64) error {
	p, err := checkFit(X, y)
	if err != nil {
		return err
	}
	if r.MinSamplesSplit < 2 {
		r.MinSamplesSplit = 2
	}
	if r.MinSamplesLeaf < 1 {
		r.MinSamplesLeaf = 1
	}
	r.nFeatures = p
	r.rng = rand.New(rand.NewSource(r.Seed))
	idx := make([]int, len(X))
	for i := range idx {
		idx[i] = i
	}
	r.root = r.grow(X, y, idx, 0)
	return nil
}

// grow recursively builds the tree over the sample indices idx.
func (r *DecisionTreeRegressor) grow(X [][]float64, y []float64, idx []int, depth int) *treeNode {
	node := &treeNode{}
	sum := 0.0
	for _, i := range idx {
		sum += y[i]
	}
	node.value = sum / float64(len(idx))

	if len(idx) < r.MinSamplesSplit || (r.MaxDepth > 0 && depth >= r.MaxDepth) {
		node.leaf = true
		return node
	}
	// Pure node?
	pure := true
	for _, i := range idx[1:] {
		if y[i] != y[idx[0]] {
			pure = false
			break
		}
	}
	if pure {
		node.leaf = true
		return node
	}

	feat, thr, ok := r.bestSplit(X, y, idx)
	if !ok {
		node.leaf = true
		return node
	}
	var li, ri []int
	for _, i := range idx {
		if X[i][feat] <= thr {
			li = append(li, i)
		} else {
			ri = append(ri, i)
		}
	}
	if len(li) < r.MinSamplesLeaf || len(ri) < r.MinSamplesLeaf {
		node.leaf = true
		return node
	}
	node.feature = feat
	node.threshold = thr
	node.left = r.grow(X, y, li, depth+1)
	node.right = r.grow(X, y, ri, depth+1)
	return node
}

// bestSplit scans features (possibly a random subset) for the split with
// the lowest weighted child sum of squares, using the incremental
// left/right statistics trick so each feature costs one sort plus one
// linear pass.
func (r *DecisionTreeRegressor) bestSplit(X [][]float64, y []float64, idx []int) (int, float64, bool) {
	features := make([]int, r.nFeatures)
	for j := range features {
		features[j] = j
	}
	if r.MaxFeatures > 0 && r.MaxFeatures < 1 {
		k := int(math.Ceil(r.MaxFeatures * float64(r.nFeatures)))
		if k < 1 {
			k = 1
		}
		r.rng.Shuffle(len(features), func(i, j int) { features[i], features[j] = features[j], features[i] })
		features = features[:k]
	}

	n := len(idx)
	totalSum, totalSq := 0.0, 0.0
	for _, i := range idx {
		totalSum += y[i]
		totalSq += y[i] * y[i]
	}

	bestScore := math.Inf(1)
	bestFeat, bestThr := -1, 0.0
	order := make([]int, n)
	for _, f := range features {
		copy(order, idx)
		sort.Slice(order, func(a, b int) bool { return X[order[a]][f] < X[order[b]][f] })

		// Candidate cut positions: all midpoints, or quantile-sampled ones
		// when MaxThresholds caps the search (histogram splits).
		stride := 1
		if r.MaxThresholds > 0 && n > r.MaxThresholds {
			stride = n / r.MaxThresholds
		}

		leftSum, leftSq := 0.0, 0.0
		for pos := 0; pos < n-1; pos++ {
			yi := y[order[pos]]
			leftSum += yi
			leftSq += yi * yi
			if stride > 1 && (pos+1)%stride != 0 {
				continue
			}
			a, b := X[order[pos]][f], X[order[pos+1]][f]
			if a == b {
				continue // cannot cut between equal values
			}
			nl := float64(pos + 1)
			nr := float64(n - pos - 1)
			if int(nl) < r.MinSamplesLeaf || int(nr) < r.MinSamplesLeaf {
				continue
			}
			rightSum := totalSum - leftSum
			rightSq := totalSq - leftSq
			// Weighted child SSE = Σy² − (Σy)²/n per side.
			score := (leftSq - leftSum*leftSum/nl) + (rightSq - rightSum*rightSum/nr)
			if score < bestScore {
				bestScore = score
				bestFeat = f
				bestThr = (a + b) / 2
			}
		}
	}
	if bestFeat < 0 {
		return 0, 0, false
	}
	return bestFeat, bestThr, true
}

// Predict implements Regressor.
func (r *DecisionTreeRegressor) Predict(X [][]float64) ([]float64, error) {
	if r.root == nil {
		return nil, ErrNotFitted
	}
	if err := checkPredict(X, r.nFeatures); err != nil {
		return nil, err
	}
	out := make([]float64, len(X))
	for i, row := range X {
		out[i] = r.predictRow(row)
	}
	return out, nil
}

// predictRow walks one sample down the fitted tree to its leaf value. The
// caller has checked that the tree is fitted and the row's width.
func (r *DecisionTreeRegressor) predictRow(row []float64) float64 {
	n := r.root
	for !n.leaf {
		if row[n.feature] <= n.threshold {
			n = n.left
		} else {
			n = n.right
		}
	}
	return n.value
}

// Depth returns the fitted tree's depth (0 for a single leaf).
func (r *DecisionTreeRegressor) Depth() int {
	var walk func(n *treeNode) int
	walk = func(n *treeNode) int {
		if n == nil || n.leaf {
			return 0
		}
		l, rr := walk(n.left), walk(n.right)
		if l > rr {
			return l + 1
		}
		return rr + 1
	}
	return walk(r.root)
}

// LeafCount returns the number of leaves in the fitted tree.
func (r *DecisionTreeRegressor) LeafCount() int {
	var walk func(n *treeNode) int
	walk = func(n *treeNode) int {
		if n == nil {
			return 0
		}
		if n.leaf {
			return 1
		}
		return walk(n.left) + walk(n.right)
	}
	return walk(r.root)
}

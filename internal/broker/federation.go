package broker

import (
	"fmt"
	"strconv"

	"repro/internal/faults"
)

// ClusterSpec describes one federation member's machine and economy
// relative to the paper's reference cluster.
type ClusterSpec struct {
	// Name identifies the cluster in reports, journals, and panel files.
	Name string
	// Nodes is the machine size.
	Nodes int
	// Speed scales every node's rating: 2 runs jobs twice as fast as the
	// reference machine. Zero means the neutral 1.
	Speed float64
	// PriceFactor scales the paper's base price, economy.DefaultBasePrice,
	// for this cluster (and thereby the Libra family's pricing functions,
	// which build on it). Zero means the neutral 1.
	PriceFactor float64
	// FaultIntensity optionally pins this cluster's failure scenario.
	// Empty inherits the run's federation-wide intensity, so a preset can
	// mix a flaky cluster into an otherwise healthy federation.
	FaultIntensity faults.Intensity
}

// speed returns the effective speed multiplier (the neutral 1 for zero).
func (cs ClusterSpec) speed() float64 {
	if cs.Speed == 0 {
		return 1
	}
	return cs.Speed
}

// priceFactor returns the effective price multiplier (the neutral 1 for
// zero).
func (cs ClusterSpec) priceFactor() float64 {
	if cs.PriceFactor == 0 {
		return 1
	}
	return cs.PriceFactor
}

// neutral reports whether the cluster runs at reference speed and price.
func (cs ClusterSpec) neutral() bool {
	return cs.speed() == 1 && cs.priceFactor() == 1
}

// Federation is an ordered set of clusters fronted by one meta-broker. The
// order is part of the run's identity: it is the final routing tie-break
// and the reduction order of the federation report.
type Federation struct {
	Clusters []ClusterSpec
}

// Validate checks the federation is well-formed: at least one cluster,
// unique non-empty names, positive sizes, non-negative multipliers, and
// known fault intensities.
func (f Federation) Validate() error {
	if len(f.Clusters) == 0 {
		return fmt.Errorf("broker: federation has no clusters")
	}
	seen := make(map[string]bool, len(f.Clusters))
	for i, cs := range f.Clusters {
		if cs.Name == "" {
			return fmt.Errorf("broker: cluster %d has no name", i)
		}
		if seen[cs.Name] {
			return fmt.Errorf("broker: duplicate cluster name %q", cs.Name)
		}
		seen[cs.Name] = true
		if cs.Nodes <= 0 {
			return fmt.Errorf("broker: cluster %q has non-positive size %d", cs.Name, cs.Nodes)
		}
		if cs.Speed < 0 {
			return fmt.Errorf("broker: cluster %q has negative speed %v", cs.Name, cs.Speed)
		}
		if cs.PriceFactor < 0 {
			return fmt.Errorf("broker: cluster %q has negative price factor %v", cs.Name, cs.PriceFactor)
		}
		if _, err := faults.ParseIntensity(string(cs.FaultIntensity)); err != nil {
			return fmt.Errorf("broker: cluster %q: %v", cs.Name, err)
		}
	}
	return nil
}

// MaxNodes returns the widest machine in the federation: the admission
// bound for job width, mirroring the single-cluster rule that a job wider
// than the machine is a validation error, not a rejection.
func (f Federation) MaxNodes() int {
	max := 0
	for _, cs := range f.Clusters {
		if cs.Nodes > max {
			max = cs.Nodes
		}
	}
	return max
}

// TotalNodes returns the federation's aggregate size.
func (f Federation) TotalNodes() int {
	total := 0
	for _, cs := range f.Clusters {
		total += cs.Nodes
	}
	return total
}

// EquivalentToSingle reports whether running this federation is, by
// construction, the plain single-cluster run of the given machine size
// under the given fault intensity: one cluster, same size, neutral speed
// and price, and no private fault scenario. The experiment suite uses this
// to keep a degenerate federation's cell keys, journals, and panels
// byte-identical to today's non-federated path.
func (f Federation) EquivalentToSingle(nodes int, intensity faults.Intensity) bool {
	if len(f.Clusters) != 1 {
		return false
	}
	cs := f.Clusters[0]
	if cs.Nodes != nodes || !cs.neutral() {
		return false
	}
	// String() folds the empty spelling into "none", so a cluster pinned
	// to none is equivalent under a none-intensity run.
	return cs.FaultIntensity == "" || cs.FaultIntensity.String() == intensity.String()
}

// KeyParts returns the federation's identity for cell-key hashing: every
// field of every cluster, in federation order, in a fixed spelling.
func (f Federation) KeyParts() []string {
	parts := make([]string, 0, 5*len(f.Clusters))
	for _, cs := range f.Clusters {
		parts = append(parts,
			cs.Name,
			strconv.Itoa(cs.Nodes),
			strconv.FormatFloat(cs.speed(), 'g', -1, 64),
			strconv.FormatFloat(cs.priceFactor(), 'g', -1, 64),
			cs.FaultIntensity.String(),
		)
	}
	return parts
}

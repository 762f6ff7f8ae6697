// Package gps models the positioning service the paper assumes every
// mobile node carries ("each MN can acquire its location information
// such as geographical position, moving velocity, and moving direction,
// using some devices such as a GPS").
//
// The paper treats positioning as an oracle; we reproduce that default
// but also provide a noisy receiver so experiments can probe how much
// positioning error the logical-location machinery tolerates — a natural
// sensitivity study the paper's model invites.
package gps

import (
	"repro/internal/geom"
	"repro/internal/xrand"
)

// Fix is one positioning read-out: where the node is and how it moves.
type Fix struct {
	Pos geom.Point
	Vel geom.Vector // meters per simulated second
}

// Source yields ground-truth kinematic state; mobility models implement
// it.
type Source interface {
	// TrueFix returns the node's exact position and velocity at time now.
	TrueFix(now float64) Fix
}

// Receiver turns ground truth into the fix protocols observe.
type Receiver interface {
	// Fix samples the receiver at time now.
	Fix(src Source, now float64) Fix
}

// Oracle is the paper's idealized GPS: it reports the true state.
type Oracle struct{}

// Fix implements Receiver.
func (Oracle) Fix(src Source, now float64) Fix { return src.TrueFix(now) }

// Noisy perturbs position with zero-mean Gaussian error of the given
// standard deviation per axis (meters) and velocity with SigmaVel
// (meters/second per axis). A Noisy receiver with zero sigmas behaves
// like Oracle.
type Noisy struct {
	SigmaPos float64
	SigmaVel float64
	Rand     *xrand.Rand
}

// NewNoisy returns a receiver adding Gaussian error from its own PRNG
// stream.
func NewNoisy(sigmaPos, sigmaVel float64, rng *xrand.Rand) *Noisy {
	return &Noisy{SigmaPos: sigmaPos, SigmaVel: sigmaVel, Rand: rng}
}

// Fix implements Receiver.
func (n *Noisy) Fix(src Source, now float64) Fix {
	f := src.TrueFix(now)
	if n.SigmaPos > 0 {
		f.Pos.X += n.Rand.NormFloat64() * n.SigmaPos
		f.Pos.Y += n.Rand.NormFloat64() * n.SigmaPos
	}
	if n.SigmaVel > 0 {
		f.Vel.DX += n.Rand.NormFloat64() * n.SigmaVel
		f.Vel.DY += n.Rand.NormFloat64() * n.SigmaVel
	}
	return f
}

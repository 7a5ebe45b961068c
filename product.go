package qclique

import (
	"qclique/internal/congest"
	"qclique/internal/distprod"
	"qclique/internal/matrix"
)

// productFor dispatches a distance product to the solver selected by the
// options: the row-broadcast product for Gossip, the Proposition 2
// reduction over the strategy's FindEdges solver otherwise. Gossip with an
// epsilon falls through to findEdgesSolver, which rejects the epsilon.
func productFor(a, b *matrix.Matrix, o Options) (*matrix.Matrix, int64, error) {
	if o.Strategy == Gossip && o.Epsilon == 0 {
		net, err := congest.NewNetwork(max(a.N(), 1),
			congest.WithTransport(o.Transport), congest.WithTransportShards(o.Workers))
		if err != nil {
			return nil, 0, err
		}
		c, err := distprod.GossipProductPar(net, o.Workers)(a, b)
		if err != nil {
			return nil, 0, err
		}
		defer net.Close()
		return c, net.Rounds(), nil
	}
	solver, err := o.findEdgesSolver("DistanceProduct")
	if err != nil {
		return nil, 0, err
	}
	c, stats, err := distprod.Product(a, b, distprod.Options{
		Solver:  solver,
		Params:  o.params(),
		Seed:    o.Seed,
		Workers: o.Workers,
	})
	if err != nil {
		return nil, 0, err
	}
	return c, stats.Rounds, nil
}

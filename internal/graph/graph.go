// Package graph models NFV service graphs (Figure 1(a) of the paper):
// VNF nodes with numbered ports, connected by logical links among
// themselves and to external endpoints (NICs). The orchestrator lowers a
// graph onto a node as VMs, dpdkr ports and OpenFlow steering rules.
package graph

import "fmt"

// Kind discriminates VNF node types the orchestrator can instantiate.
type Kind string

// Supported VNF kinds.
const (
	KindForward  Kind = "forward"  // two ports, moves packets between them
	KindFirewall Kind = "firewall" // two ports, filters while forwarding
	KindMonitor  Kind = "monitor"  // two ports, accounts while forwarding
	KindSource   Kind = "source"   // one port, generates traffic
	KindSink     Kind = "sink"     // one port, terminates traffic
	KindSrcSink  Kind = "srcsink"  // one port, generates AND terminates (bidirectional endpoint)
	KindNAT44    Kind = "nat44"    // two ports, stateful source NAT (inside=0, outside=1)
	KindACL      Kind = "acl"      // two ports, stateful firewall with established bypass
	KindBalancer Kind = "balancer" // two ports, L4 VIP load balancer (clients=0, backends=1)
)

// PortCount returns the number of dpdkr ports a kind requires, or 0 for an
// unknown kind.
func (k Kind) PortCount() int {
	switch k {
	case KindSource, KindSink, KindSrcSink:
		return 1
	case KindForward, KindFirewall, KindMonitor, KindNAT44, KindACL, KindBalancer:
		return 2
	default:
		return 0
	}
}

// Stateful reports whether a kind keeps per-connection state (NAT
// bindings, conntrack entries, backend pins) that a fresh instance would not
// have. Such a VNF must not be moved by re-instantiation: the replica would
// start with an empty table and break every established connection.
func (k Kind) Stateful() bool {
	switch k {
	case KindNAT44, KindACL, KindBalancer:
		return true
	default:
		return false
	}
}

// VNF is one service-graph node.
type VNF struct {
	Name string
	Kind Kind
	// Args carries kind-specific configuration (e.g. []vnf.FirewallRule for
	// firewalls, a pkt.UDPSpec for sources). Interpreted by the
	// orchestrator's factories.
	Args any
	// Node names the compute node this VNF is placed on. Empty means the
	// deployment's default node; single-node deployments ignore placement
	// entirely. Cluster deployments partition the graph by this label (see
	// Partition).
	Node string
}

// EndpointKind discriminates edge endpoints.
type EndpointKind int

// Endpoint kinds.
const (
	EpVNF EndpointKind = iota
	EpNIC
)

// Endpoint is one side of an edge: a (VNF, port) pair or a named NIC.
type Endpoint struct {
	Kind EndpointKind
	Name string // VNF name or NIC name
	Port int    // VNF-local port index (ignored for NICs)
}

// VNFPort addresses port idx of the named VNF.
func VNFPort(name string, idx int) Endpoint {
	return Endpoint{Kind: EpVNF, Name: name, Port: idx}
}

// NIC addresses a named external NIC.
func NIC(name string) Endpoint {
	return Endpoint{Kind: EpNIC, Name: name}
}

// Edge is a logical link. Bidirectional edges lower to two steering rules.
type Edge struct {
	A, B          Endpoint
	Bidirectional bool
	// PCP is the 802.1Q priority (0..7) this link's traffic is stamped with
	// when the edge crosses a node boundary: the sending side's push_vlan
	// steering adds a mod_vlan_pcp, and the trunk's DRR scheduler weighs the
	// class accordingly. Intra-node edges ignore it.
	PCP uint8
}

// Graph is a service graph.
type Graph struct {
	VNFs  []VNF
	Edges []Edge
}

// Validate checks structural sanity: unique VNF names, endpoints that
// exist, port indexes in range, and no VNF port used by two edges (each
// dpdkr port carries exactly one logical attachment).
func (g *Graph) Validate() error {
	byName := make(map[string]VNF, len(g.VNFs))
	for _, v := range g.VNFs {
		if v.Name == "" {
			return fmt.Errorf("graph: VNF with empty name")
		}
		if _, dup := byName[v.Name]; dup {
			return fmt.Errorf("graph: duplicate VNF %q", v.Name)
		}
		if v.Kind.PortCount() == 0 {
			return fmt.Errorf("graph: VNF %q has unknown kind %q", v.Name, v.Kind)
		}
		byName[v.Name] = v
	}
	used := make(map[Endpoint]bool)
	for i, e := range g.Edges {
		for _, ep := range []Endpoint{e.A, e.B} {
			switch ep.Kind {
			case EpVNF:
				v, ok := byName[ep.Name]
				if !ok {
					return fmt.Errorf("graph: edge %d references unknown VNF %q", i, ep.Name)
				}
				if ep.Port < 0 || ep.Port >= v.Kind.PortCount() {
					return fmt.Errorf("graph: edge %d: VNF %q has no port %d", i, ep.Name, ep.Port)
				}
				if used[ep] {
					return fmt.Errorf("graph: edge %d: VNF port %s/%d already linked", i, ep.Name, ep.Port)
				}
				used[ep] = true
			case EpNIC:
				if ep.Name == "" {
					return fmt.Errorf("graph: edge %d: NIC endpoint without name", i)
				}
			default:
				return fmt.Errorf("graph: edge %d: bad endpoint kind %d", i, ep.Kind)
			}
		}
	}
	return nil
}

// CrossEdge is one graph edge that crosses a node boundary after
// partitioning. The edge is removed from both local graphs; the deployer
// realizes it as a VLAN lane on the shared trunk joining the two nodes,
// steering each side with vlan push/pop rules against the endpoints
// recorded here.
type CrossEdge struct {
	// Index is the position of the original edge in Graph.Edges.
	Index int
	// NodeA/NodeB are the nodes hosting the edge's A/B endpoints.
	NodeA, NodeB string
	// A/B are the original (VNF) endpoints of the cut edge.
	A, B Endpoint
	// Bidirectional mirrors the original edge.
	Bidirectional bool
	// PCP mirrors the original edge's crossing priority; the deployer stamps
	// it onto the lane's frames for the trunk scheduler.
	PCP uint8
}

// Partition is a service graph split across compute nodes: one local graph
// per node (crossing edges removed) plus the list of crossings to realize
// as trunk lanes.
type Partition struct {
	// Local maps node name → the node-local subgraph. Only nodes that host
	// at least one VNF appear.
	Local map[string]*Graph
	// Cross lists the boundary crossings in Graph.Edges order.
	Cross []CrossEdge
}

// nodeOf resolves an endpoint's node: a VNF endpoint lives where its VNF is
// placed (default node when unlabeled); a NIC endpoint lives where the NIC
// is registered per nicNode (default node when absent).
func nodeOf(ep Endpoint, byName map[string]VNF, defaultNode string, nicNode map[string]string) string {
	switch ep.Kind {
	case EpVNF:
		if n := byName[ep.Name].Node; n != "" {
			return n
		}
	case EpNIC:
		if n := nicNode[ep.Name]; n != "" {
			return n
		}
	}
	return defaultNode
}

// Partition splits g by VNF placement. VNFs with an empty Node land on
// defaultNode; nicNode maps externally-registered NIC names to their nodes
// (nil is fine when the graph has no NIC endpoints or they all live on the
// default node).
//
// Every edge whose endpoints resolve to the same node is copied into that
// node's local graph unchanged. A VNF↔VNF edge crossing a boundary is
// realizable: it is removed from both local graphs and recorded as a
// CrossEdge for the deployer to realize as a VLAN lane on the node pair's
// shared trunk. An edge that crosses a boundary at a NIC endpoint is NOT
// realizable — the physical NIC's wire side is owned by external traffic,
// so there is no place to splice an inter-node hop — and Partition rejects
// it.
func (g *Graph) Partition(defaultNode string, nicNode map[string]string) (*Partition, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if defaultNode == "" {
		return nil, fmt.Errorf("graph: partition needs a default node name")
	}
	byName := make(map[string]VNF, len(g.VNFs))
	for _, v := range g.VNFs {
		byName[v.Name] = v
	}
	p := &Partition{Local: make(map[string]*Graph)}
	local := func(node string) *Graph {
		lg, ok := p.Local[node]
		if !ok {
			lg = &Graph{}
			p.Local[node] = lg
		}
		return lg
	}
	for _, v := range g.VNFs {
		node := v.Node
		if node == "" {
			node = defaultNode
		}
		local(node).VNFs = append(local(node).VNFs, v)
	}
	for i, e := range g.Edges {
		na := nodeOf(e.A, byName, defaultNode, nicNode)
		nb := nodeOf(e.B, byName, defaultNode, nicNode)
		if na == nb {
			local(na).Edges = append(local(na).Edges, e)
			continue
		}
		if e.A.Kind == EpNIC || e.B.Kind == EpNIC {
			return nil, fmt.Errorf(
				"graph: edge %d crosses nodes %s/%s at a NIC endpoint — not realizable; place the NIC's peer on the NIC's node",
				i, na, nb)
		}
		p.Cross = append(p.Cross, CrossEdge{
			Index: i, NodeA: na, NodeB: nb,
			A: e.A, B: e.B,
			Bidirectional: e.Bidirectional,
			PCP:           e.PCP,
		})
	}
	return p, nil
}

// Crossings counts the edges whose endpoints resolve to different nodes
// under the current placement — the cost function the Place optimizer
// minimizes and deployers pay one trunk lane per unit of.
func (g *Graph) Crossings(defaultNode string, nicNode map[string]string) int {
	byName := make(map[string]VNF, len(g.VNFs))
	for _, v := range g.VNFs {
		byName[v.Name] = v
	}
	n := 0
	for _, e := range g.Edges {
		if nodeOf(e.A, byName, defaultNode, nicNode) != nodeOf(e.B, byName, defaultNode, nicNode) {
			n++
		}
	}
	return n
}

// Nodes returns the set of node names a graph's placement references
// (excluding the empty default label), in first-use order.
func (g *Graph) Nodes() []string {
	var out []string
	seen := make(map[string]bool)
	for _, v := range g.VNFs {
		if v.Node != "" && !seen[v.Node] {
			seen[v.Node] = true
			out = append(out, v.Node)
		}
	}
	return out
}

// SplitBidirChain builds the Figure 3(a) bidirectional chain of n forwarder
// VMs and places its VM sequence (end0, vnf1..vnfn, end1) across the given
// nodes in contiguous, evenly-sized segments — the natural split-chain
// layout, where exactly len(nodes)-1 hops cross a node boundary. With fewer
// VMs than nodes, only the first VMs-many nodes are used; with no nodes the
// graph is identical to BidirChain.
func SplitBidirChain(n int, nodes []string) *Graph {
	g := BidirChain(n)
	if len(nodes) == 0 {
		return g
	}
	total := len(g.VNFs) // chain VMs: 2 endpoints + n forwarders
	segs := len(nodes)
	if segs > total {
		segs = total
	}
	// BidirChain lists VNFs as end0, end1, vnf1..vnfn; placement follows the
	// chain order end0, vnf1..vnfn, end1.
	order := make([]*VNF, 0, total)
	order = append(order, &g.VNFs[0])
	for i := 2; i < total; i++ {
		order = append(order, &g.VNFs[i])
	}
	order = append(order, &g.VNFs[1])
	pos := 0
	for s := 0; s < segs; s++ {
		size := total / segs
		if s < total%segs {
			size++
		}
		for k := 0; k < size; k++ {
			order[pos].Node = nodes[s]
			pos++
		}
	}
	return g
}

// Chain builds the paper's benchmark graph: a source/NIC, n forwarder VMs,
// and a sink/NIC, linked bidirectionally in a line. If nicIn/nicOut are
// empty, a source and sink VNF are used instead (memory-only, Figure 3(a));
// otherwise traffic enters and leaves via the named NICs (Figure 3(b)).
func Chain(n int, nicIn, nicOut string) *Graph {
	g := &Graph{}
	var first, last Endpoint
	if nicIn == "" {
		g.VNFs = append(g.VNFs, VNF{Name: "src", Kind: KindSource})
		first = VNFPort("src", 0)
	} else {
		first = NIC(nicIn)
	}
	if nicOut == "" {
		g.VNFs = append(g.VNFs, VNF{Name: "dst", Kind: KindSink})
		last = VNFPort("dst", 0)
	} else {
		last = NIC(nicOut)
	}
	prev := first
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("vnf%d", i+1)
		g.VNFs = append(g.VNFs, VNF{Name: name, Kind: KindForward})
		g.Edges = append(g.Edges, Edge{A: prev, B: VNFPort(name, 0), Bidirectional: true})
		prev = VNFPort(name, 1)
	}
	g.Edges = append(g.Edges, Edge{A: prev, B: last, Bidirectional: true})
	return g
}

// BidirChain builds the paper's bidirectional benchmark chain: both ends are
// combined source/sink endpoints (named "end0" and "end1") injecting 64B
// traffic toward each other through n forwarder VMs. This is the exact
// workload of Figure 3(a): "the first and the last VM of the chain act as
// traffic source/sink" with "bidirectional 64B traffic".
func BidirChain(n int) *Graph {
	g := &Graph{
		VNFs: []VNF{
			{Name: "end0", Kind: KindSrcSink},
			{Name: "end1", Kind: KindSrcSink},
		},
	}
	prev := VNFPort("end0", 0)
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("vnf%d", i+1)
		g.VNFs = append(g.VNFs, VNF{Name: name, Kind: KindForward})
		g.Edges = append(g.Edges, Edge{A: prev, B: VNFPort(name, 0), Bidirectional: true})
		prev = VNFPort(name, 1)
	}
	g.Edges = append(g.Edges, Edge{A: prev, B: VNFPort("end1", 0), Bidirectional: true})
	return g
}

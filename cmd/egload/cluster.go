package main

import (
	"flag"
	"net"

	"egwalker"
	"egwalker/cluster"
	"egwalker/internal/loadgen"
	"egwalker/netsync"
)

var clusterFlag = flag.String("cluster", "", "comma-separated egserve cluster seed addresses (spread connections, follow redirect frames; overrides -addr)")

// clusterDialer is non-nil when -cluster is set; it rotates initial
// dials across the seed list and follows redirect frames to each
// document's serving replica.
var clusterDialer *cluster.Dialer

// connectDoc opens a serving connection for docID. Single-node mode
// is loadgen's TCP dialer against -addr; the catch-up then arrives as
// the connection's first inbound frame (haveFirst false). Cluster mode
// routes via the dialer, which must consume the first frame to tell a
// serve from a redirect — the catch-up is handed back in first
// (haveFirst true, possibly zero events), and the caller must process
// it before reading the connection.
func connectDoc(docID string, sum egwalker.VersionSummary) (conn net.Conn, pc *netsync.PeerConn, first []egwalker.Event, haveFirst bool, err error) {
	if clusterDialer == nil {
		return loadgen.TCPDialer(*addr)(docID, sum)
	}
	c, f, err := clusterDialer.ConnectServing(docID, sum)
	if err != nil {
		return nil, nil, nil, false, err
	}
	if f.Kind == netsync.FrameEvents {
		first = f.Events
	}
	return c.Conn, c.Peer, first, true, nil
}

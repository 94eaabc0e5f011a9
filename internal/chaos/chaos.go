// Package chaos is the deterministic multi-client fault-injection
// harness: it spins up a real server.Serve listener, runs real devices
// (client.Run) over netem links with injected faults, and
// drives scripted churn — staggered joins, crashes, reconnects,
// partitions, corrupt streams, and server kill + recovery — while
// auditing the shared global map with smap.CheckInvariants at
// quiescent sync points. See DESIGN.md §9.
package chaos

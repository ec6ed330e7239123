(* The lossy probe of the traced stabilize run: shortest paths from one
   sink on a 25,000-node circulant C_n(1, 97, n/10), cut into 4 shards,
   with the reliable exchange at its default settings (in-flight cap 16,
   backoff 1) under 3% message drops and 3% reorders.  The long offset
   makes edges cross shard boundaries, so shard exchange and the link's
   seq/ack/retransmit protocol do the work.  The instance is solved on
   one domain, for the runtime's phase clocks and the link counters, and
   again on a pool of min(nproc, 2) domains, for the pool's speedup.

   This module also holds the known-fault operation of the stabilize
   workload's rounds that goes through the sharded runtime. *)

open Ledger
open Common
module Gen = Symnet_graph.Gen
module Runner = Symnet_engine.Runner
module Chaos = Symnet_engine.Chaos
module Link = Symnet_engine.Link
module Pool = Symnet_engine.Domain_pool
module Sharded = Symnet_engine.Sharded_network

let shards = 4

let link_spec =
  {
    Link.default_spec with
    faults =
      [
        { Link.kind = Link.Drop; p = 0.03; target = Link.All_channels };
        { Link.kind = Link.Reorder { window = 4 }; p = 0.03; target = Link.All_channels };
      ];
    reliable = true;
  }

type inst = {
  net : SP.state Network.t;
  sh : SP.state Sharded.t;
  sinks : int list;
  cap : int;
}

let setup ctx cfg =
  let n = if cfg.smoke then 12_000 else 25_000 in
  let g, _ =
    Trace.span ctx.tr "gen.circulant_stream" (fun () ->
        Gen.graph_of_stream
          (Gen.circulant_stream ~n ~offsets:[ 1; 97; n / 10 ]))
  in
  (* The circulant is vertex-transitive: every sink gives the same
     problem up to relabelling, while the seed moves the shard
     boundaries' position relative to it and the link's fault draws. *)
  let sinks = [ int_of cfg ~salt:1 n ] in
  let net, _ =
    Trace.span ctx.tr "network.init" (fun () ->
        Network.init ~rng:(rng cfg ~salt:2) g (SP.automaton ~sinks ~cap:n))
  in
  let sh, _ =
    Trace.span ctx.tr "sharded_network.create" (fun () ->
        let sh = Sharded.create ~shards net in
        Sharded.configure_link sh ~seed:(int_of cfg ~salt:3 (1 lsl 30)) link_spec;
        sh)
  in
  { net; sh; sinks; cap = n }

let link_of i =
  match Sharded.link_runtime i.sh with
  | Some lk -> lk
  | None -> failwith "lossy: no link runtime attached"

let check_solved cfg ~what i =
  check_labels cfg ~what ~cap:i.cap ~sinks:i.sinks i.net;
  let lk = link_of i in
  check
    (Link.messages_dropped lk > 0 && Link.retries lk > 0)
    "%s: the link dropped %d and retried %d messages" what
    (Link.messages_dropped lk) (Link.retries lk)

(* Known fault, kept as an operation that fails: a reliable link with
   node-state corruption quiesces prematurely.  Shortest paths with sinks
   {0,1,2} on a 2,000-node random graph, 4 shards, a corruption burst and
   a drop-free reliable link: the run declares quiescence with labels
   above their BFS distance.  The same run without the link segment, or
   with cap=0, is exact.  Returns whether the operation succeeded. *)
let premature_quiescence () =
  let g = Gen.random_connected (Prng.create ~seed:11) ~n:2000 ~extra_edges:2000 in
  let cap = Graph.node_count g in
  let sinks = [ 0; 1; 2 ] in
  let net = Network.init ~rng:(Prng.create ~seed:7) g (SP.automaton ~sinks ~cap) in
  let chaos =
    match
      Chaos.of_spec ~seed:1
        "burst:at=10:width=3:count=20:kind=corrupt;link=drop:p=0:reliable=true"
    with
    | Ok c -> c
    | Error e -> failwith e
  in
  let o = Runner.run ~shards ~chaos net in
  let wrong = wrong_labels ~cap ~sinks net in
  known_fault "premature quiescence"
    (o.quiesced && wrong = 0)
    "quiesced=%b at round %d, %d wrong labels" o.quiesced o.rounds wrong

(* Step the shards to quiescence, each [Sharded_network.step] under a
   span; [pool] runs the rounds on a domain pool. *)
let solve ?pool ctx i =
  let continue = ref true in
  while !continue do
    let changed, _ =
      Trace.span ctx.tr "sharded_network.step" (fun () ->
          Sharded.step ?pool ~dirty:true i.sh)
    in
    continue := changed
  done

(* The runtime's phase clocks and the link counters of a solved
   instance. *)
let record_counters l i =
  record l "shard.read_ms" (ns_to_ms (Sharded.read_ns i.sh));
  record l "shard.commit_ms" (ns_to_ms (Sharded.commit_ns i.sh));
  record l "shard.exchange_ms" (ns_to_ms (Sharded.exchange_ns i.sh));
  record l "shard.messages" (float_of_int (Sharded.messages i.sh));
  let lk = link_of i in
  let delivered = float_of_int (Link.delivered lk) in
  let retries = float_of_int (Link.retries lk) in
  record l "link.delivered" delivered;
  record l "link.retries" retries;
  record l "link.dropped" (float_of_int (Link.messages_dropped lk));
  record l "link.stalls" (float_of_int (Link.stalls lk));
  record l "link.goodput" (delivered /. (delivered +. retries))

(* Set up, solve and check the instance of [cfg] on one domain, then a
   fresh copy of it on [pool], checked to take the parallel path; the
   pool's speedup is the one-domain time over the pool's. *)
let probe ~pool cfg ctx l =
  let i = setup ctx cfg in
  let (), one_s = timed_phase (fun () -> solve ctx i) in
  check_solved cfg ~what:"lossy" i;
  record_counters l i;
  let j = setup ctx cfg in
  let (), par_s =
    timed_phase (fun () ->
        fst (Trace.span ctx.tr "lossy parallel" (fun () -> solve ~pool ctx j)))
  in
  let what = "lossy (parallel)" in
  check_solved cfg ~what j;
  check
    (Graph.original_size (Network.graph j.net) >= Network.par_cutoff j.net)
    "%s: %d nodes is below the parallel cutoff" what
    (Graph.original_size (Network.graph j.net));
  check (Pool.size pool = domains ()) "%s: pool of %d domains" what (Pool.size pool);
  record l "pool.speedup" (one_s /. par_s)

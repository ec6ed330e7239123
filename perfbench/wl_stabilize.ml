(* stabilize: shortest paths from one corner sink of a 317x317 grid
   (100,489 nodes) on the flat engine, one domain, change-driven rounds,
   run from the initial state to quiescence; then a burst of
   uniform-target corrupt and crash hits lands, with no recovery policy,
   and the network stabilises again.  Hundreds of rounds with frontiers
   under 1% of the nodes: dirty-frontier upkeep and the fault pipeline
   do most of the work.

   Each round of a run also attempts two known-fault operations, a
   watchdog false trip (below) and a premature quiescence under a
   reliable link (Lossy_probe).  The traced run follows each timed solve
   with the probes of the layers this workload does not reach: a census
   (full rounds, view fill and step; Census_probe) and a sharded run
   behind a lossy link (shard exchange, link, domain pool;
   Lossy_probe). *)

open Ledger
open Common
module Gen = Symnet_graph.Gen
module Runner = Symnet_engine.Runner
module Chaos = Symnet_engine.Chaos
module Pool = Symnet_engine.Domain_pool

type inst = {
  net : SP.state Network.t;
  sinks : int list;
  cap : int;
  chaos : Chaos.t;
}

(* Fault rounds are 1..[horizon] of the second session, each with one
   corruption and one crash (down two rounds): 32 hits.  One crash per
   round keeps every hit effective: a uniform target is drawn among live
   nodes, and two crashes drawn in the same round could pick the same
   victim.  Equal fault rounds, about 2% of all rounds, keep the p99
   round latency inside their cluster. *)
let horizon = 16

let chaos_of cfg =
  Chaos.create
    ~seed:(int_of cfg ~salt:2 (1 lsl 30))
    [
      Chaos.Burst
        { at = 1; width = horizon; count = 1; kind = Chaos.Corrupt; target = Chaos.Uniform };
      Chaos.Burst
        {
          at = 1;
          width = horizon;
          count = 1;
          kind = Chaos.Crash { downtime = 2 };
          target = Chaos.Uniform;
        };
    ]

let setup ctx cfg =
  let side = if cfg.smoke then 40 else 317 in
  let g, build =
    Trace.span ctx.tr "gen.grid" (fun () -> Gen.grid ~rows:side ~cols:side)
  in
  record_if ctx "graph.build_s" (ns_to_s build);
  let n = Graph.node_count g in
  let corners = [| 0; side - 1; n - side; n - 1 |] in
  let sinks = [ corners.(int_of cfg ~salt:1 4) ] in
  let net, _ =
    Trace.span ctx.tr "network.init" (fun () ->
        Network.init ~rng:(rng cfg ~salt:3) g (SP.automaton ~sinks ~cap:n))
  in
  { net; sinks; cap = n; chaos = chaos_of cfg }

let check_solved cfg i (o1 : Runner.outcome) (o2 : Runner.outcome) =
  check o1.quiesced "stabilize: initial run did not quiesce";
  check o2.quiesced "stabilize: chaos run did not quiesce";
  check (o2.faults_applied > 0) "stabilize: no fault applied";
  check (o2.faults_noop = 0) "stabilize: %d no-op faults" o2.faults_noop;
  check
    (Network.dirty_tracking i.net && Network.dirty_step_sound i.net)
    "stabilize: rounds were not change-driven";
  check_labels cfg ~what:"stabilize" ~cap:i.cap ~sinks:i.sinks i.net

(* Known fault, kept as an operation that fails: a fault-free run on a
   40x40 grid under Retry recovery at default patience.  The transition
   count of a growing wavefront sets no new minimum for 50 rounds, so the
   watchdog trips; checkpoints are only taken on new minima, so every
   retry restarts from round 0 and the run gives up with wrong labels.
   Without a recovery policy the same run quiesces with exact labels.
   Returns whether the operation succeeded. *)
let watchdog_run () =
  let g = Gen.grid ~rows:40 ~cols:40 in
  let cap = Graph.node_count g in
  let net =
    Network.init ~rng:(Prng.create ~seed:1) g (SP.automaton ~sinks:[ 0 ] ~cap)
  in
  let o =
    Runner.run
      ~recovery:(Runner.recovery (Runner.Retry { attempts = 2; reseed = false }))
      net
  in
  let wrong = wrong_labels ~cap ~sinks:[ 0 ] net in
  known_fault "watchdog false trip"
    (o.quiesced && (not o.gave_up) && wrong = 0)
    "gave_up=%b at round %d, %d wrong labels" o.gave_up o.rounds wrong

(* The solve: the fault-free session to quiescence, then the chaos
   session.  Traced, the first session's rounds give the dirty-round
   figures (a [Runner.step] of it is one [Network.sync_step_dirty] plus
   the runner's bookkeeping) and the second's are told apart by the burst
   schedule into fault and quiet rounds. *)
let solve ctx i =
  let live = float_of_int (live_count (Network.graph i.net)) in
  let acts = ref 0 and trans = ref 0 and nrounds = ref 0 in
  let dirty r =
    record_if ctx "network.dirty_round_us" (ns_to_us r.ns);
    acts := !acts + r.activations;
    trans := !trans + r.transitions;
    incr nrounds
  in
  let chaos r =
    if r.index <= horizon then record_if ctx "runner.fault_round_ms" (ns_to_ms r.ns)
    else record_if ctx "runner.quiet_round_us" (ns_to_us r.ns)
  in
  let o1 =
    drive ~on_round:dirty ctx ~name:"runner.step dirty" (Runner.start ~dirty:true i.net)
  in
  let o2 =
    drive ~on_round:chaos ctx ~name:"runner.step chaos"
      (Runner.start ~dirty:true ~chaos:i.chaos i.net)
  in
  record_if ctx "network.frontier_share"
    (float_of_int !acts /. float_of_int (max 1 !nrounds) /. live);
  record_if ctx "network.useful_share"
    (float_of_int !trans /. float_of_int (max 1 !acts));
  record_if ctx "faults.applied" (float_of_int o2.faults_applied);
  (o1, o2)

(* Victim selection on its own: the actions the burst rounds derive from
   the settled graph, per action returned. *)
let pick_probe tr l i =
  let g = Network.graph i.net in
  let pick_ns = ref 0 and picked = ref 0 in
  for round = 1 to horizon do
    let acts, ns =
      Trace.span tr "chaos.actions_due" (fun () -> Chaos.actions_due i.chaos ~round g)
    in
    pick_ns := !pick_ns + ns;
    picked := !picked + List.length acts
  done;
  record l "chaos.pick_us" (ns_to_us !pick_ns /. float_of_int (max 1 !picked))

let op ?pool cfg ctx =
  let i, setup_s = timed_phase (fun () -> setup ctx cfg) in
  let (o1, o2), solve_s = timed_phase (fun () -> solve ctx i) in
  check_solved cfg i o1 o2;
  Option.iter
    (fun l ->
      pick_probe ctx.tr l i;
      Census_probe.probe cfg ctx l;
      Option.iter (fun pool -> Lossy_probe.probe ~pool cfg ctx l) pool)
    ctx.layers;
  { setup_s; solve_s; errors = 0 }

let run ~traced cfg =
  let name = "stabilize" in
  let known_faults = [ watchdog_run; Lossy_probe.premature_quiescence ] in
  if not traced then Common.run ~traced ~known_faults cfg name op
  else begin
    let pool = Pool.create (domains ()) in
    Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
    Common.run ~traced ~known_faults cfg name (op ~pool)
  end

(* Pieces the workloads and probes share: the run configuration, seeded
   input streams, the whole-rounds loop, the shortest-paths oracle, the
   per-layer metric table and the engine probes of the traced runs. *)

open Ledger
module Graph = Symnet_graph.Graph
module Analysis = Symnet_graph.Analysis
module Prng = Symnet_prng.Prng
module Network = Symnet_engine.Network
module SP = Symnet_algorithms.Shortest_paths

type cfg = {
  seed : int;
  seconds : float;
  smoke : bool;
  perturb : string option;  (** name of one output to falsify (self-test) *)
}

(* An independent stream per input, all derived from --seed. *)
let rng cfg ~salt = Prng.split_key (Prng.create ~seed:cfg.seed) ~key:salt
let int_of cfg ~salt bound = Prng.int (rng cfg ~salt) bound
let perturbs cfg name = cfg.perturb = Some name

(* The domains a parallel workload may use: the machine's cores, at
   most two (the host this benchmark was sized on has two vCPUs). *)
let domains () = min 2 (Symnet_engine.Domain_pool.recommended ())

(* Attempt whole rounds of operations until [seconds] have passed (at
   least one round), so the failed share of attempted operations is the
   same in every run whatever its length. *)
let rounds cfg f =
  let t0 = now_ns () in
  let n = ref 0 in
  while !n = 0 || secs_since t0 < cfg.seconds do
    f !n;
    incr n
  done;
  !n

(* The inputs of a run's [k]-th operation: each operation draws its own
   inputs from a seed derived from --seed and [k], so a run measures an
   average over many inputs and the same seed still repeats the run. *)
let op_cfg cfg k =
  { cfg with seed = Prng.int (Prng.split_key (Prng.create ~seed:cfg.seed) ~key:(1000 + k)) (1 lsl 30) }

(* Settle the heap before a timed phase so that every sample starts
   from the same collector state. *)
let settle_heap () = Gc.full_major ()

(* [f ()] on a settled heap; its result and wall time in seconds. *)
let timed_phase f =
  settle_heap ();
  let r, ns = timed f in
  (r, float_of_int ns /. 1e9)

(* --- shortest-paths oracle --------------------------------------------- *)

(* Every live node's label equals its multi-source BFS distance to the
   live sinks on the final live graph, or [cap] where no sink is
   reachable.  Returns the number of wrong labels. *)
let wrong_labels ?(perturb = false) ~cap ~sinks net =
  let g = Network.graph net in
  let sources = List.filter (Graph.is_live_node g) sinks in
  let d = Analysis.distances g ~sources in
  let bad = ref 0 in
  let first_live = ref true in
  for v = 0 to Graph.original_size g - 1 do
    if Graph.is_live_node g v then begin
      let l = SP.label (Network.state net v) in
      let l = if perturb && !first_live then l + 1 else l in
      first_live := false;
      let expect = if d.(v) >= cap then cap else d.(v) in
      if l <> expect then incr bad
    end
  done;
  !bad

let check_labels cfg ~what ~cap ~sinks net =
  let bad = wrong_labels ~perturb:(perturbs cfg "label") ~cap ~sinks net in
  check (bad = 0) "%s: %d live labels differ from BFS distances" what bad

(* The outcome of a known-fault operation, described on standard error
   the first time it is seen in a run.  Returns [ok]. *)
let known_faults_seen = Hashtbl.create 2

let known_fault name ok fmt =
  Printf.ksprintf
    (fun detail ->
      if not (Hashtbl.mem known_faults_seen name) then begin
        Hashtbl.add known_faults_seen name ();
        log "perfbench: known fault %s: %s (%s)" name
          (if ok then "operation succeeded" else "operation failed")
          detail
      end;
      ok)
    fmt

let live_count g =
  let c = ref 0 in
  Graph.iter_nodes g (fun _ -> incr c);
  !c

(* --- per-layer table ----------------------------------------------------- *)

(* Every per-layer metric, in the order the traced run prints them.  A
   workload that does not reach a layer reports 0 for it. *)
let layer_metrics =
  [
    ("graph.build_s", "s");
    ("view.fill_ns", "ns");
    ("fssga.step_ns", "ns");
    ("network.full_round_ms", "ms");
    ("network.words_per_activation", "words");
    ("network.dirty_round_us", "us");
    ("network.frontier_share", "ratio");
    ("network.useful_share", "ratio");
    ("network.checkpoint_ms", "ms");
    ("network.restore_ms", "ms");
    ("chaos.pick_us", "us");
    ("runner.fault_round_ms", "ms");
    ("runner.quiet_round_us", "us");
    ("faults.applied", "count");
    ("shard.read_ms", "ms");
    ("shard.commit_ms", "ms");
    ("shard.exchange_ms", "ms");
    ("shard.messages", "count");
    ("link.delivered", "count");
    ("link.retries", "count");
    ("link.dropped", "count");
    ("link.stalls", "count");
    ("link.goodput", "ratio");
    ("pool.speedup", "ratio");
    ("protocol.decode_us", "us");
    ("protocol.encode_us", "us");
    ("snapshot.take_ms", "ms");
    ("analysis.distances_ms", "ms");
    ("analysis.components_ms", "ms");
    ("analysis.bridges_ms", "ms");
    ("daemon.round_tick_us", "us");
    ("daemon.idle_tick_us", "us");
    ("serve.rounds_per_request", "ratio");
    ("traced.solve_s", "s");
  ]

(* Per-layer samples gathered over a traced run's operations; each
   metric reports the median of its samples. *)
type layers = (string, float list) Hashtbl.t

let new_layers () : layers = Hashtbl.create 64

let record (t : layers) name v =
  if not (List.mem_assoc name layer_metrics) then
    invalid_arg ("unknown per-layer metric " ^ name);
  let l = Option.value ~default:[] (Hashtbl.find_opt t name) in
  Hashtbl.replace t name (v :: l)

let layer_results (t : layers) =
  List.map
    (fun (name, unit_) ->
      let v =
        match Hashtbl.find_opt t name with
        | None | Some [] -> 0.
        | Some l -> median_l l
      in
      metric name unit_ v)
    layer_metrics

let ns_to_us ns = float_of_int ns /. 1e3
let ns_to_ms ns = float_of_int ns /. 1e6
let ns_to_s ns = float_of_int ns /. 1e9

(* --- engine probes ------------------------------------------------------- *)

(* Time the engine's per-node layers on a settled network: view fill
   ([Network.view_of] over every live node) and the automaton's step on
   a filled view. *)
let view_probe (tr : Trace.t) (l : layers) net =
  let g = Network.graph net in
  let n = Graph.original_size g in
  let live = live_count g in
  let a = Network.automaton net in
  let step_rng = Prng.create ~seed:0x5e1f in
  for _ = 1 to 5 do
    let (), fill =
      Trace.span tr "network.view_of" (fun () ->
          for v = 0 to n - 1 do
            if Graph.is_live_node g v then ignore (Network.view_of net v)
          done)
    in
    let (), both =
      Trace.span tr "fssga.step" (fun () ->
          for v = 0 to n - 1 do
            if Graph.is_live_node g v then begin
              let self = Network.state net v in
              ignore
                (Sys.opaque_identity
                   (a.Symnet_core.Fssga.step ~self ~rng:step_rng
                      (Network.view_of net v)))
            end
          done)
    in
    let per = float_of_int (max 1 live) in
    record l "view.fill_ns" (float_of_int fill /. per);
    record l "fssga.step_ns" (float_of_int (both - fill) /. per)
  done

(* Time [Network.checkpoint] and [Network.restore] on a settled
   network. *)
let checkpoint_probe (tr : Trace.t) (l : layers) net =
  for _ = 1 to 3 do
    let cp, ns = Trace.span tr "network.checkpoint" (fun () -> Network.checkpoint net) in
    record l "network.checkpoint_ms" (ns_to_ms ns);
    let (), ns = Trace.span tr "network.restore" (fun () -> Network.restore net cp) in
    record l "network.restore_ms" (ns_to_ms ns)
  done

(* --- end-to-end assembly -------------------------------------------------- *)

(* A run's latency samples (one per round, or per request, in us): the
   90th and 99th percentiles of each operation's own samples.  The
   median over operations of such a percentile is what a typical
   operation sees, and a burst of host noise that slows one operation
   does not move it. *)
type latencies = {
  mutable op : Samples.t;
  mutable count : int;  (** samples over the run *)
  mutable p90s : float list;
  mutable p99s : float list;
}

let latencies () = { op = Samples.create (); count = 0; p90s = []; p99s = [] }

let sample l us =
  Samples.add l.op us;
  l.count <- l.count + 1

let end_op l =
  l.p90s <- Samples.percentile 0.9 l.op :: l.p90s;
  l.p99s <- Samples.percentile 0.99 l.op :: l.p99s;
  l.op <- Samples.create ()

(* --- the context of an operation ------------------------------------------ *)

(* What an operation measures into: the span recorder (off in untraced
   runs, where [Trace.span] only times), the per-layer table (traced runs
   only) and the run's latency samples.  Untraced and traced runs step
   the program through the same code; the traced run only adds spans,
   layer records and the probes that follow each timed solve. *)
type ctx = { tr : Trace.t; layers : layers option; lat : latencies }

let record_if ctx name v = Option.iter (fun l -> record l name v) ctx.layers

(* One round of a runner session: its position in the session, its wall
   time and what it did. *)
type round = {
  index : int;
  ns : int;
  activations : int;
  transitions : int;
  words : float;  (** minor-heap words allocated *)
}

(* Step a runner session to its end, each [Runner.step] under a span
   named [name] and one latency sample per round; [on_round] sees every
   round. *)
let drive ?(on_round = fun (_ : round) -> ()) ctx ~name s =
  let net = Symnet_engine.Runner.session_net s in
  let rec go () =
    let index = Symnet_engine.Runner.session_round s in
    let a0 = Network.activations net and x0 = Network.transitions net in
    let w0 = Gc.minor_words () in
    let r, ns = Trace.span ctx.tr name (fun () -> Symnet_engine.Runner.step s) in
    let words = Gc.minor_words () -. w0 in
    sample ctx.lat (ns_to_us ns);
    on_round
      {
        index;
        ns;
        activations = Network.activations net - a0;
        transitions = Network.transitions net - x0;
        words;
      };
    match r with None -> go () | Some o -> o
  in
  go ()

(* The end-to-end figures of one untraced run: [setup] and [solve] hold
   one time per operation, an operation answers [per_op] requests (1 for
   the solve workloads) and [peak_mb] is the peak resident set over the
   run's first round.  The latency figures are the medians over
   operations of each one's 90th and 99th percentiles.  The median
   is left out: on serve it falls in the gap between point reads (under
   65 us, 45% of requests) and analyses (over 250 us), where a shift of
   a few requests in the mix moves it by a third. *)
let end_to_end ~per_op ~setup ~solve ~peak_mb (lat : latencies) =
  let quartiles l =
    let a = Array.of_list l in
    String.concat "/"
      (List.map (fun p -> Printf.sprintf "%.4g" (percentile p a))
         [ 0.; 0.25; 0.5; 0.75; 1. ])
  in
  log
    "perfbench: %d operations (min/q1/median/q3/max): set-up %s s, solve %s s, \
     p99 %s us; %d latency samples"
    (List.length solve) (quartiles setup) (quartiles solve) (quartiles lat.p99s)
    lat.count;
  [
    metric "setup_s" "s" (median_l setup);
    metric "solve_s" "s" (median_l solve);
    metric "qps" "1/s" (float_of_int per_op /. median_l solve);
    metric "p90_us" "us" (median_l lat.p90s);
    metric "p99_us" "us" (median_l lat.p99s);
    metric "peak_rss_mb" "MiB" peak_mb;
  ]

(* --- runs ------------------------------------------------------------------- *)

(* One operation's report: its set-up and solve times in seconds, and
   the requests of it that failed on their own (serve's response errors;
   0 elsewhere). *)
type op = { setup_s : float; solve_s : float; errors : int }

(* A run: whole rounds, each one of the workload's operations and then
   its known-fault operations, if any.  [op] sets up and
   solves on its own inputs and checks its outputs; it answers [per_op]
   requests.  An operation whose checks fail counts as failed (serve: as
   many failed requests as came back with errors, at least one).
   Untraced, the result holds the end-to-end metrics; traced, the
   per-layer metrics, and the recorder keeps the first round's spans.
   The peak resident set is read after the first round: the rounds all
   do the same work, and a peak read at the end would grow with the
   number of rounds the host's speed allowed. *)
let run ~traced ?(per_op = 1) ?(known_faults = []) cfg name op =
  let tr = Trace.create () in
  let layers = if traced then Some (new_layers ()) else None in
  let ctx = { tr; layers; lat = latencies () } in
  let setup = ref [] and solve = ref [] in
  let attempted = ref 0 and failed = ref 0 and peak_mb = ref nan in
  if traced then Trace.enable tr;
  let _ =
    rounds cfg (fun k ->
        let before = List.length !failures in
        let o, _ = Trace.span tr ("op " ^ name) (fun () -> op (op_cfg cfg k) ctx) in
        setup := o.setup_s :: !setup;
        solve := o.solve_s :: !solve;
        end_op ctx.lat;
        attempted := !attempted + per_op;
        if List.length !failures > before then failed := !failed + max 1 o.errors;
        List.iter
          (fun f ->
            incr attempted;
            let ok, _ = Trace.span tr "op known fault" f in
            if not ok then incr failed)
          known_faults;
        if k = 0 then peak_mb := peak_rss_mb ();
        Trace.disable tr)
  in
  let metrics =
    match layers with
    | None -> end_to_end ~per_op ~setup:!setup ~solve:!solve ~peak_mb:!peak_mb ctx.lat
    | Some l ->
        record l "traced.solve_s" (median_l !solve);
        layer_results l
  in
  ( tr,
    { correct = !failures = []; attempted = !attempted; failed = !failed; metrics } )

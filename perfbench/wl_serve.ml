(* serve: a resident 100x100-grid shortest-paths network (sinks at the
   four corners) in the serve daemon, driven from the same thread by the
   hammer client through its pump hook: a closed loop of one connection
   and the hammer's default request mix, every 20th request a kill,
   revive or corrupt mutation.  It exercises framing, the codec,
   snapshots, the graph analyses, the periodic checkpoint and the rounds
   each mutation re-triggers, with writes beside reads on one resident
   network. *)

open Ledger
open Common
module Gen = Symnet_graph.Gen
module Runner = Symnet_engine.Runner
module Daemon = Symnet_serve.Daemon
module Hammer = Symnet_serve.Hammer
module Protocol = Symnet_serve.Protocol
module Snapshot = Symnet_serve.View
module Jsonx = Symnet_obs.Jsonx

type inst = {
  net : SP.state Network.t;
  d : SP.state Daemon.t;
  current : SP.state Runner.session option ref;
  sinks : int list;
  cap : int;
}

let side cfg = if cfg.smoke then 30 else 100
let requests cfg = if cfg.smoke then 300 else 2000

let quiesced i =
  match !(i.current) with
  | Some s -> Runner.session_result s <> None
  | None -> false

(* A daemon tick under a span; traced, told apart by whether it stepped
   a round. *)
let tick ctx d =
  let r0 = Daemon.rounds_run d in
  let (), ns = Trace.span ctx.tr "daemon.tick" (fun () -> Daemon.tick d) in
  if Daemon.rounds_run d > r0 then record_if ctx "daemon.round_tick_us" (ns_to_us ns)
  else record_if ctx "daemon.idle_tick_us" (ns_to_us ns)

(* Tick the daemon until its current session has ended.  A grid
   shortest-paths wavefront needs about 2*side rounds; the bound only
   stops a livelock from hanging the benchmark. *)
let settle ctx cfg i =
  let budget = ref (50 * side cfg) in
  while (not (quiesced i)) && !budget > 0 do
    tick ctx i.d;
    decr budget
  done;
  check (quiesced i) "serve: the daemon did not quiesce"

let sock_path () = Printf.sprintf "perfbench/out/serve-%d.sock" (Unix.getpid ())

let setup ctx cfg =
  let side = side cfg in
  let g, build =
    Trace.span ctx.tr "gen.grid" (fun () -> Gen.grid ~rows:side ~cols:side)
  in
  record_if ctx "graph.build_s" (ns_to_s build);
  let n = Graph.node_count g in
  let sinks = [ 0; side - 1; n - side; n - 1 ] in
  let net, _ =
    Trace.span ctx.tr "network.init" (fun () ->
        Network.init ~rng:(rng cfg ~salt:2) g (SP.automaton ~sinks ~cap:n))
  in
  let current = ref None in
  let session () =
    let s = Runner.start ~dirty:true net in
    current := Some s;
    s
  in
  let d, _ =
    Trace.span ctx.tr "daemon.create" (fun () ->
        Daemon.create
          ~state_json:(fun s -> Jsonx.Int (SP.label s))
          ~session
          (Daemon.Unix_sock (sock_path ())))
  in
  let i = { net; d; current; sinks; cap = n } in
  settle ctx cfg i;
  i

let readable fd =
  match Unix.select [ fd ] [] [] 0. with [], _, _ -> false | _ -> true

(* One script: a fresh hammer stream from the run's seed, the daemon
   ticked through the pump hook until each reply is ready.  A request's
   latency is the client's closed-loop cycle, from one request being sent
   to the next one being sent (the last to the end of the script); each
   request is a span carrying its number, with the daemon ticks it waited
   on inside.  Returns the hammer's outcome, the rounds the daemon
   stepped meanwhile and the latency samples taken. *)
let script ctx cfg i =
  let r0 = Daemon.rounds_run i.d in
  let n0 = Samples.count ctx.lat.op in
  let last = ref 0 and cur = ref None and id = ref 0 in
  let end_request t =
    if !last > 0 then sample ctx.lat (ns_to_us (t - !last));
    last := t;
    Option.iter (Trace.close_span ctx.tr) !cur;
    cur := None
  in
  let pump fd =
    end_request (now_ns ());
    incr id;
    Trace.set_request ctx.tr !id;
    cur := Some (Trace.open_span ctx.tr "request");
    while not (readable fd) do
      tick ctx i.d
    done
  in
  let o =
    Hammer.run
      ~seed:(int_of cfg ~salt:1 (1 lsl 30))
      ~requests:(requests cfg) ~pump
      ~connect:(fun () -> Daemon.connect (Daemon.Unix_sock (sock_path ())))
      ~n:i.cap ()
  in
  end_request (now_ns ());
  Trace.set_request ctx.tr 0;
  (o, Daemon.rounds_run i.d - r0, Samples.count ctx.lat.op - n0)

let check_script cfg ~what i (o : Hammer.outcome) ~rounds ~samples =
  let errors = o.errors + if perturbs cfg "errors" then 1 else 0 in
  let stale = o.stamp_regressions + if perturbs cfg "stamps" then 1 else 0 in
  check (errors = 0) "%s: %d response errors" what errors;
  check (stale = 0) "%s: %d stamp regressions" what stale;
  check (samples = requests cfg) "%s: %d of %d requests were pumped" what samples
    (requests cfg);
  check (o.mutations > 0) "%s: no mutation in the script" what;
  check (rounds > 0) "%s: no round stepped during the script" what;
  check_labels cfg ~what ~cap:i.cap ~sinks:i.sinks i.net

(* A request mix shaped like the hammer's (point reads, analyses,
   batches-free, one mutation in twenty) for timing the codec apart from
   the socket. *)
let sample_requests cfg ~n count =
  let r = rng cfg ~salt:5 in
  let node () = Prng.int r n in
  List.init count (fun k ->
      if k mod 20 = 19 then
        Protocol.Mutate
          (match Prng.int r 3 with
          | 0 -> Protocol.Kill_node (node ())
          | 1 -> Protocol.Revive_node (node ())
          | _ -> Protocol.Corrupt (node ()))
      else
        Protocol.Query
          (match Prng.int r 100 with
          | x when x < 10 -> Protocol.Status
          | x when x < 35 -> Protocol.Node_state [ node (); node (); node () ]
          | x when x < 60 ->
              Protocol.Distances
                { sources = [ node () ]; targets = [ node (); node (); node () ] }
          | x when x < 75 -> Protocol.Census
          | x when x < 85 -> Protocol.Components
          | x when x < 95 -> Protocol.Component_of (node ())
          | x when x < 98 -> Protocol.Bridges
          | _ -> Protocol.Telemetry))

(* Snapshot and analyses on fresh (unmemoised) snapshots of the settled
   network. *)
let analysis_probe cfg tr l i =
  let r = rng cfg ~salt:6 in
  for _ = 1 to 5 do
    let v, ns =
      Trace.span tr "snapshot.take" (fun () ->
          Snapshot.take ~round:(Daemon.rounds_run i.d) i.net)
    in
    record l "snapshot.take_ms" (ns_to_ms ns);
    let _, ns =
      Trace.span tr "analysis.distances" (fun () ->
          Snapshot.distances v ~sources:[ Prng.int r i.cap ])
    in
    record l "analysis.distances_ms" (ns_to_ms ns);
    let _, ns = Trace.span tr "analysis.components" (fun () -> Snapshot.components v) in
    record l "analysis.components_ms" (ns_to_ms ns);
    let _, ns = Trace.span tr "analysis.bridges" (fun () -> Snapshot.bridges v) in
    record l "analysis.bridges_ms" (ns_to_ms ns)
  done

(* The codec apart from the socket, with a round-trip check. *)
let codec_probe cfg tr l i =
  let reqs = sample_requests cfg ~n:i.cap 2000 in
  let per = float_of_int (List.length reqs) in
  let frames, ns =
    Trace.span tr "protocol.encode" (fun () -> List.map Protocol.encode reqs)
  in
  record l "protocol.encode_us" (ns_to_us ns /. per);
  let decoded, ns =
    Trace.span tr "protocol.decode" (fun () -> List.map Protocol.decode frames)
  in
  record l "protocol.decode_us" (ns_to_us ns /. per);
  check
    (List.for_all2 (fun q d -> d = Ok q) reqs decoded)
    "serve (traced): a request did not survive encode and decode"

let op cfg ctx =
  let i, setup_s = timed_phase (fun () -> setup ctx cfg) in
  Fun.protect ~finally:(fun () -> Daemon.close i.d) @@ fun () ->
  let (o, rounds, samples), solve_s = timed_phase (fun () -> script ctx cfg i) in
  record_if ctx "serve.rounds_per_request"
    (float_of_int rounds /. float_of_int o.requests);
  settle ctx cfg i;
  check_script cfg ~what:"serve" i o ~rounds ~samples;
  Option.iter
    (fun l ->
      analysis_probe cfg ctx.tr l i;
      codec_probe cfg ctx.tr l i;
      checkpoint_probe ctx.tr l i.net)
    ctx.layers;
  { setup_s; solve_s; errors = o.errors }

let run ~traced cfg = Common.run ~traced ~per_op:(requests cfg) cfg "serve" op

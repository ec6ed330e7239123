(* The census probe of the traced stabilize run: the Flajolet-Martin
   census automaton on a 100,000-node Gen.random_connected graph
   (100,000 extra chords), flat engine, one domain, run to quiescence.
   The automaton is probabilistic, so every round is a full naive round:
   view fill, transition and boxed-state allocation dominate, while
   frontier upkeep, faults, shards and serving do nothing.  Its rounds
   give the full-round layer figures, and the settled network the view
   and step figures. *)

open Ledger
open Common
module Gen = Symnet_graph.Gen
module Runner = Symnet_engine.Runner
module Census = Symnet_algorithms.Census

type inst = { net : Census.state Network.t; n : int }

let setup ctx cfg =
  let n = if cfg.smoke then 2_000 else 100_000 in
  let g, _ =
    Trace.span ctx.tr "gen.random_connected" (fun () ->
        Gen.random_connected (rng cfg ~salt:1) ~n ~extra_edges:n)
  in
  let net, _ =
    Trace.span ctx.tr "network.init" (fun () ->
        Network.init ~rng:(rng cfg ~salt:2) g
          (Census.automaton ~k:(Census.recommended_k n)))
  in
  { net; n }

(* The estimate band.  E1 measured the single-bitmap estimate's ratio to
   n at deciles 0.65 (p10) and 5.2 (p90); one bit of the bitmap is a
   factor 2, and the band below widens that decile band by five bits on
   each side.  Under the independent-bit model of the bitmap the chance
   that a correct run falls outside it is below 1e-6 at both sizes used
   here (see README.md). *)
let band_lo = 0.65 /. 32.
let band_hi = 5.2 *. 32.

(* Every live node holds the same bitmap, and its estimate lies in the
   band around the true node count. *)
let check_census cfg ~what i =
  let g = Network.graph i.net in
  let masks = ref [] in
  let first = ref true in
  Graph.iter_nodes g (fun v ->
      let m = Census.bits (Network.state i.net v) in
      let m =
        if perturbs cfg "bitmap" && !first then Option.map (fun m -> m lxor 1) m
        else m
      in
      first := false;
      if not (List.mem m !masks) then masks := m :: !masks);
  match !masks with
  | [ Some mask ] ->
      let k = Census.recommended_k i.n in
      let est = Census.estimate_of_bits ~k mask in
      let est = if perturbs cfg "estimate" then est *. 1e3 else est in
      let ratio = est /. float_of_int (live_count g) in
      check
        (ratio >= band_lo && ratio <= band_hi)
        "%s: estimate %.0f is %.3g x n, outside [%.3g, %.3g]" what est ratio
        band_lo band_hi
  | l -> check false "%s: %d distinct bitmaps at quiescence" what (List.length l)

(* Each full round gives its time and the minor-heap words it allocated
   per activation. *)
let full_round ctx r =
  record_if ctx "network.full_round_ms" (ns_to_ms r.ns);
  record_if ctx "network.words_per_activation"
    (r.words /. float_of_int (max 1 r.activations))

(* Set up, run to quiescence and check one census on the inputs of
   [cfg], under the traced run's spans and into its per-layer table;
   the probe's round latencies stay out of the run's samples. *)
let probe cfg ctx l =
  let ctx = { ctx with lat = latencies () } in
  let i = setup ctx cfg in
  (* dirty stepping is requested and must be refused: it is unsound for
     a probabilistic automaton, so every round stays full *)
  let o =
    drive ~on_round:(full_round ctx) ctx ~name:"runner.step census"
      (Runner.start ~dirty:true i.net)
  in
  check o.quiesced "census: run did not quiesce";
  check
    ((not (Network.dirty_step_sound i.net))
    && o.activations = o.rounds * live_count (Network.graph i.net))
    "census: rounds were not full rounds (%d activations in %d rounds)"
    o.activations o.rounds;
  check_census cfg ~what:"census" i;
  view_probe ctx.tr l i.net

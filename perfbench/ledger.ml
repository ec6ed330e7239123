(* Measurement plumbing shared by the workloads: clock reads, sample
   statistics, the span recorder behind the traced run, the process's
   peak resident set, and the one-line JSON result. *)

let now_ns = Symnet_obs.Clock.now_ns
let secs_since t0 = float_of_int (now_ns () - t0) /. 1e9

(* Time [f ()]; returns its result and the elapsed nanoseconds. *)
let timed f =
  let t0 = now_ns () in
  let r = f () in
  (r, now_ns () - t0)

(* --- statistics --------------------------------------------------------- *)

(* Linear interpolation between neighbouring order statistics. *)
let percentile = Symnet_obs.Stats.percentile
let median_l l = percentile 0.5 (Array.of_list l)

(* Growable float sample buffer: the latency series run to tens of
   thousands of entries and must not allocate per sample. *)
module Samples = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 1024 0.; n = 0 }

  let add t x =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) 0. in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    t.a.(t.n) <- x;
    t.n <- t.n + 1

  let count t = t.n
  let to_array t = Array.sub t.a 0 t.n
  let percentile p t = percentile p (to_array t)
end

(* --- process resources -------------------------------------------------- *)

(* Peak resident set (VmHWM) of this process, in MiB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec scan () =
        match input_line ic with
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
            Scanf.sscanf
              (String.sub line 6 (String.length line - 6))
              " %d kB"
              (fun kb -> float_of_int kb /. 1024.)
        | _ -> scan ()
        | exception End_of_file -> nan
      in
      scan ())

(* --- spans ---------------------------------------------------------------- *)

(* The traced run's span recorder.  Spans are opened and closed from the
   benchmark's own code around calls into the program's public
   functions; each carries a parent (the innermost open span) and a
   request id (0 outside the serve workload), and the kept ones stay in
   memory until [write_chrome] dumps a Chrome trace-event file that
   Perfetto and chrome://tracing load. *)
module Trace = struct
  type span = {
    id : int;
    name : string;
    t0 : int;
    mutable t1 : int;
    parent : int;
    request : int;
  }

  type t = {
    mutable on : bool;
    mutable next_id : int;
    mutable stack : span list;
    mutable spans : span list;
    mutable request : int;
  }

  let create () =
    { on = false; next_id = 1; stack = []; spans = []; request = 0 }

  let enable t = t.on <- true

  (* Stop recording: later spans are still timed but not kept (a traced
     run keeps the spans of its first operation only, which bounds the
     trace file). *)
  let disable t = t.on <- false
  let set_request t r = t.request <- r

  let open_span t name =
    let parent = match t.stack with s :: _ -> s.id | [] -> 0 in
    let s =
      {
        id = t.next_id;
        name;
        t0 = now_ns ();
        t1 = 0;
        parent;
        request = t.request;
      }
    in
    t.next_id <- t.next_id + 1;
    t.stack <- s :: t.stack;
    s

  let close_span t s =
    s.t1 <- now_ns ();
    t.stack <- List.filter (fun x -> x != s) t.stack;
    if t.on then t.spans <- s :: t.spans

  (* [span t name f] brackets [f ()] and returns its result together
     with the span's duration in ns (measured whether or not tracing is
     on, so the traced layer figures and the spans agree). *)
  let span t name f =
    if t.on then begin
      let s = open_span t name in
      match f () with
      | r ->
          close_span t s;
          (r, s.t1 - s.t0)
      | exception e ->
          close_span t s;
          raise e
    end
    else timed f

  let count t = List.length t.spans

  (* One complete ("X") event per span, times in microseconds from the
     first span. *)
  let write_chrome t path =
    let open Symnet_obs.Jsonx in
    let spans = List.sort (fun a b -> compare (a.t0, a.id) (b.t0, b.id)) t.spans in
    let base = match spans with s :: _ -> s.t0 | [] -> 0 in
    let us ns = Float (float_of_int ns /. 1e3) in
    let event s =
      Obj
        [
          ("name", String s.name);
          ("cat", String "perfbench");
          ("ph", String "X");
          ("pid", Int 1);
          ("tid", Int 1);
          ("ts", us (s.t0 - base));
          ("dur", us (s.t1 - s.t0));
          ( "args",
            Obj [ ("id", Int s.id); ("parent", Int s.parent); ("request", Int s.request) ] );
        ]
    in
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () ->
        output_string oc
          (to_string (Obj [ ("traceEvents", List (List.map event spans)) ]));
        output_char oc '\n')
end

(* --- result --------------------------------------------------------------- *)

type metric = { name : string; value : float; unit_ : string }

let metric name unit_ value = { name; value; unit_ }

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : metric list;
}

let json_of_result r =
  let open Symnet_obs.Jsonx in
  to_string
    (Obj
       [
         ("correct", Bool r.correct);
         ("attempted", Int r.attempted);
         ("failed", Int r.failed);
         ( "metrics",
           Obj
             (List.map
                (fun m ->
                  (m.name, Obj [ ("value", Float m.value); ("unit", String m.unit_) ]))
                r.metrics) );
       ])

(* --- checks ---------------------------------------------------------------- *)

(* Correctness failures are collected, reported on stderr and turn the
   result's [correct] false; they never abort the run. *)
let failures : string list ref = ref []

let check cond fmt =
  Printf.ksprintf
    (fun msg -> if not cond then failures := msg :: !failures)
    fmt

let log fmt = Printf.eprintf (fmt ^^ "\n%!")

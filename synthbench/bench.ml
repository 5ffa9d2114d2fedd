(* Proof-checked synthesis benchmark.

     bench.exe run --workload W --seed N --seconds S --trace 0|1
     bench.exe selftest BENCHMARK.json

   One process, one domain, closed loop: the next synthesis starts only
   when the previous one has returned.  [--trace 0] reports the end-to-end
   metrics of untraced syntheses; [--trace 1] alternates an untraced and a
   traced pass over the workload's instances and reports the per-layer
   metrics.  The last line of standard output is one JSON object; the exit
   code is 1 when any synthesis failed its checks. *)

module Clock = Archex_obs.Clock
module J = Archex_obs.Json

(* Names and units, in BENCHMARK.json order. *)
let end_to_end = [ ("synth_s", "s"); ("setup_s", "s"); ("peak_heap_mb", "MB") ]

let per_layer =
  [ ("encode.s", "s"); ("encode.rows", "count"); ("encode.vars", "count");
    ("compile.s", "s"); ("compile.rows", "count"); ("solve.s", "s");
    ("solve.calls", "count"); ("solve.decisions", "count");
    ("solve.propagations", "count"); ("solve.conflicts", "count");
    ("solve.conflicts_per_s", "1/s"); ("solve.props_per_s", "1/s");
    ("solve.minor_words_per_conflict", "words"); ("solve.proof_share", "ratio");
    ("solve.root_gap", "ratio"); ("solve.first_event_s", "s");
    ("solve.unproven", "count"); ("oracle.s", "s"); ("oracle.calls", "count");
    ("oracle.degraded", "count"); ("learn.s", "s"); ("learn.rows", "count");
    ("learn.k", "count"); ("mr.iterations", "count");
    ("mr.rows_final", "count"); ("mr.self_s", "s");
    ("gc.minor_words", "words"); ("gc.major_collections", "count");
    ("gc.top_heap_words", "words"); ("trace.overhead", "ratio") ]

let median xs =
  match List.sort compare xs with
  | [] -> nan
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let div a b = if b = 0. then 0. else a /. b

(* The workload's instances for one pass, in a seeded order. *)
let instances ~seed (w : Workloads.t) =
  let cases = Array.of_list w.cases in
  Instances.shuffle (Random.State.make [| 0xba7c; seed |]) cases;
  Array.to_list
    (Array.map (fun (c : Workloads.case) -> (c, Instances.build c.spec)) cases)

(* Set-up as a caller pays it before the first solve: instance generation,
   Template.validate_all and the encoding (ILP-MR) or compilation (ILP-AR),
   summed over the workload's instances. *)
let setup_once (w : Workloads.t) =
  List.iter
    (fun (c : Workloads.case) ->
      let inst = Instances.build c.spec in
      (match Archlib.Template.validate_all inst.template with
      | Ok () -> ()
      | Error es -> failwith (String.concat "; " es));
      match w.algo with
      | Workloads.Mr -> ignore (Archex.Gen_ilp.encode inst.template)
      | Workloads.Ar -> ignore (Archex.Ilp_ar.compile inst.template ~r_star:c.r_star))
    w.cases

(* On a shared host the process's speed drifts by up to 1.6x, over
   seconds to minutes (NOTES.md), so a raw time, or any statistic of a
   run's raw times, moves with the host.  Each sample is therefore
   followed by the fixed kernel of [Calib], and the metric is the median
   of the samples normalised by it.

   Set-up takes 0.3 to 10 ms.  One sample times enough set-ups back to
   back to last about [sample_s], and stands for the time of one.  After
   every timed pass a full major collection clears the pass's garbage,
   so that set-up does not pay for it, and [per_pass] samples are taken:
   spread over the whole run, they see the same mix of the host's phases
   as the passes do. *)
let sample_s = 0.02
let per_pass = 2

let setup_sampler w =
  let timed reps =
    let t0 = Clock.now () in
    for _ = 1 to reps do setup_once w done;
    Clock.elapsed t0 /. float_of_int reps
  in
  ignore (timed 1);
  let reps = max 1 (int_of_float (Float.round (sample_s /. timed 3))) in
  fun () ->
    Gc.full_major ();
    List.init per_pass (fun _ ->
        let t = timed reps in
        (t, Calib.kernel_s ()))

type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable reasons : string list;  (** failed checks, newest first *)
}

(* One pass: every instance once, in the seeded order.  Returns the pass
   wall time and, per case, the result and the failed checks. *)
let pass ~seed w f =
  List.fold_left
    (fun (wall, results) (case, inst) ->
      let acc = ref [] in
      let t0 = Clock.now () in
      let r = f acc case inst in
      (wall +. Clock.elapsed t0, (case, r, acc) :: results))
    (0., [])
    (instances ~seed w)

(* Each synthesis is one attempt; any failed check fails it. *)
let count tally results =
  List.iter
    (fun (_, _, acc) ->
      tally.attempted <- tally.attempted + 1;
      if !acc <> [] then begin
        tally.failed <- tally.failed + 1;
        tally.reasons <- !acc @ tally.reasons
      end)
    results

let heap_mb () =
  float_of_int ((Gc.quick_stat ()).top_heap_words * (Sys.word_size / 8))
  /. 1e6

(* A warm-up pass first, checked but not timed, so that the timed passes
   find lazy tables built and the heap grown. *)
let untraced tally ~seed ~seconds w =
  let setup_samples = setup_sampler w in
  count tally (snd (pass ~seed w (Synth.run w)));
  let t0 = Clock.now () in
  let rec loop acc setup =
    if acc <> [] && Clock.elapsed t0 >= seconds then (acc, setup)
    else
      let wall, results = pass ~seed w (Synth.run w) in
      count tally results;
      let sample = (wall, Calib.kernel_s ()) in
      loop (sample :: acc) (setup_samples () @ setup)
  in
  let samples, setup = loop [] [] in
  let peak_heap_mb = heap_mb () in
  let norm s = median (List.map Calib.normalise s) in
  let raw s = List.map fst s and kernel s = median (List.map snd s) in
  Printf.printf "%s: synth_s over %d pass(es) of %d instance(s), raw [%s], \
                 raw median %.4f s, kernel median %.4f s; setup_s over %d \
                 samples, raw median %.4g s, kernel median %.4f s\n%!"
    w.name (List.length samples) (List.length w.cases)
    (String.concat " " (List.rev_map (Printf.sprintf "%.3f") (raw samples)))
    (median (raw samples)) (kernel samples) (List.length setup)
    (median (raw setup)) (kernel setup);
  [ ("synth_s", norm samples); ("setup_s", norm setup);
    ("peak_heap_mb", peak_heap_mb) ]

let traced tally ~seed ~seconds (w : Workloads.t) =
  let tr, events = Archex_obs.Trace.memory () in
  let c = Traced.counters () in
  let minor = ref 0. and majors = ref 0 in
  let untraced_pass () = pass ~seed w (Synth.run w) in
  let traced_pass () =
    let g0 = Gc.quick_stat () in
    let r = pass ~seed w (Traced.run tr c w) in
    let g1 = Gc.quick_stat () in
    minor := !minor +. (g1.minor_words -. g0.minor_words);
    majors := !majors + (g1.major_collections - g0.major_collections);
    r
  in
  let t0 = Clock.now () in
  (* pairs alternate which pass runs first, so a process warming up does
     not bias trace.overhead on workloads with several pairs *)
  let rec loop i u_walls t_walls =
    if u_walls <> [] && Clock.elapsed t0 >= seconds then (u_walls, t_walls)
    else begin
      let (u_wall, u), (t_wall, t) =
        if i mod 2 = 0 then
          let u = untraced_pass () in
          (u, traced_pass ())
        else
          let t = traced_pass () in
          (untraced_pass (), t)
      in
      List.iter2
        (fun (_, untraced, _) (case, traced, acc) ->
          Traced.parity acc case ~traced ~untraced)
        u t;
      count tally u;
      count tally t;
      loop (i + 1) (u_wall :: u_walls) (t_wall :: t_walls)
    end
  in
  let u_walls, t_walls = loop 0 [] [] in
  let passes = float_of_int (List.length t_walls) in
  let evs = events () in
  let prof = Archex_obs.Profile.of_events evs in
  let row name =
    List.find_opt (fun (r : Archex_obs.Profile.row) -> r.name = name) prof.rows
  in
  let total name =
    match row name with Some r -> r.total /. passes | None -> 0.
  in
  let self name = match row name with Some r -> r.self_ /. passes | None -> 0. in
  let per n = float_of_int n /. passes in
  let calls = float_of_int c.solve_calls in
  let solve_s = total "solve" in
  Format.printf "%s: %g traced pass(es)@.%a@." w.name passes
    Archex_obs.Profile.pp prof;
  let dir = ".bench_out" in
  (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
  let path = Filename.concat dir (Printf.sprintf "%s-seed%d.ndjson" w.name seed) in
  Out_channel.with_open_text path (fun oc ->
      List.iter (fun e -> output_string oc (J.to_string e ^ "\n")) evs);
  [ ("encode.s", total "encode"); ("encode.rows", per c.encode_rows);
    ("encode.vars", per c.encode_vars); ("compile.s", total "compile");
    ("compile.rows", per c.compile_rows); ("solve.s", solve_s);
    ("solve.calls", calls /. passes); ("solve.decisions", per c.decisions);
    ("solve.propagations", per c.propagations);
    ("solve.conflicts", per c.conflicts);
    ("solve.conflicts_per_s", div (per c.conflicts) solve_s);
    ("solve.props_per_s", div (per c.propagations) solve_s);
    ( "solve.minor_words_per_conflict",
      div c.solve_minor_words (float_of_int c.conflicts) );
    ("solve.proof_share", div c.proof_wall c.solve_wall);
    ("solve.root_gap", div c.root_gap_sum calls);
    ("solve.first_event_s", div c.first_event_sum calls);
    ("solve.unproven", per c.unproven); ("oracle.s", total "oracle");
    ("oracle.calls", per c.oracle_calls);
    ("oracle.degraded", per c.oracle_degraded); ("learn.s", total "learn");
    ("learn.rows", per c.learn_rows); ("learn.k", per c.learn_k);
    ("mr.iterations", per c.iterations); ("mr.rows_final", per c.rows_final);
    ("mr.self_s", self "ilp_mr" +. self "iteration");
    ("gc.minor_words", !minor /. passes);
    ("gc.major_collections", float_of_int !majors /. passes);
    ("gc.top_heap_words", float_of_int (Gc.quick_stat ()).top_heap_words);
    ("trace.overhead", (median t_walls /. median u_walls) -. 1.) ]

let result_json tally spec values =
  J.Obj
    [ ("correct", J.Bool (tally.failed = 0));
      ("attempted", J.Num (float_of_int tally.attempted));
      ("failed", J.Num (float_of_int tally.failed));
      ( "metrics",
        J.Obj
          (List.map
             (fun (name, unit) ->
               ( name,
                 J.Obj
                   [ ("value", J.Num (List.assoc name values));
                     ("unit", J.Str unit) ] ))
             spec) ) ]

let usage () =
  prerr_endline
    "usage: bench.exe run --workload W --seed N --seconds S --trace 0|1\n\
    \       bench.exe selftest BENCHMARK.json";
  exit 2

let run args =
  let workload = ref None and seed = ref None and seconds = ref None
  and trace = ref None in
  let rec parse = function
    | "--workload" :: v :: rest -> workload := Workloads.find v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string_opt v; parse rest
    | "--seconds" :: v :: rest -> seconds := float_of_string_opt v; parse rest
    | "--trace" :: (("0" | "1") as v) :: rest -> trace := Some (v = "1"); parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse args;
  match (!workload, !seed, !seconds, !trace) with
  | Some w, Some seed, Some seconds, Some trace when seed >= 0 && seconds >= 0. ->
      let tally = { attempted = 0; failed = 0; reasons = [] } in
      let json =
        if trace then
          result_json tally per_layer (traced tally ~seed ~seconds w)
        else result_json tally end_to_end (untraced tally ~seed ~seconds w)
      in
      List.iter (Printf.printf "FAILED %s\n") (List.rev tally.reasons);
      print_endline (J.to_string json);
      exit (if tally.failed = 0 then 0 else 1)
  | _ -> usage ()

(* ---- self-tests ---------------------------------------------------- *)

let check name ok =
  Printf.printf "%s %s\n%!" (if ok then "ok  " else "FAIL") name;
  ok

let relabelling_test () =
  let module T = Archlib.Template in
  let w = Option.get (Workloads.find "batch_loose") in
  let case = List.find (fun (c : Workloads.case) -> c.label = "g5") w.cases in
  let orig = Instances.build case.spec in
  let edges i = List.length (T.candidate_edges i.Instances.template) in
  List.for_all
    (fun seed ->
      let inst = Instances.build ~nodes:true ~seed case.spec in
      let acc = ref [] in
      ignore (Synth.run w acc case inst);
      List.iter print_endline !acc;
      check
        (Printf.sprintf "relabel seed %d keeps layers, edges and cost" seed)
        (Array.map Array.length inst.layers
         = Array.map Array.length orig.layers
        && edges inst = edges orig
        && T.node_count inst.template = T.node_count orig.template
        && inst.layers <> orig.layers
        && !acc = []))
    [ 1; 2; 3 ]

(* A per-solve cap far below the proof time must show up as a failure,
   never as a success: Gen_ilp reports a capped incumbent as solved, and
   a cap that ends the solve before any incumbent fails it outright. *)
let capped_test () =
  let w = Option.get (Workloads.find "mr_base") in
  let case = List.hd w.cases in
  let acc = ref [] in
  ignore
    (Synth.run ~solve_time_limit:0.01 w acc case (Instances.build case.spec));
  List.iter print_endline (List.rev !acc);
  check "a 0.01 s solve cap is counted as a failure, not as a success"
    (!acc <> [])

(* The names and units printed are those BENCHMARK.json declares. *)
let names_test path =
  let json =
    match J.of_string (In_channel.with_open_text path In_channel.input_all) with
    | Ok j -> j
    | Error e -> failwith e
  in
  let declared key =
    match J.mem key json with
    | Some (J.Arr ms) ->
        List.map
          (fun m ->
            match (J.mem "name" m, J.mem "unit" m) with
            | Some (J.Str n), Some (J.Str u) -> (n, u)
            | _ -> ("", ""))
          ms
    | _ -> []
  in
  check "end_to_end names match BENCHMARK.json" (declared "end_to_end" = end_to_end)
  && check "per_layer names match BENCHMARK.json" (declared "per_layer" = per_layer)

let selftest = function
  | [ path ] ->
      let names = names_test path in
      let relabelling = relabelling_test () in
      let capped = capped_test () in
      exit (if names && relabelling && capped then 0 else 1)
  | _ -> usage ()

let () =
  match Array.to_list Sys.argv with
  | _ :: "run" :: args -> run args
  | _ :: "selftest" :: args -> selftest args
  | _ -> usage ()

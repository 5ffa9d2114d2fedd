(* Unit and property tests for the MILP substrate: expressions, model,
   logical encodings, and cross-validation of the PB solver against brute
   force. *)

module Lin_expr = Milp.Lin_expr
module Model = Milp.Model
module Bool_encode = Milp.Bool_encode
module Solver = Milp.Solver

let checkb = Alcotest.(check bool)
let checkf = Alcotest.(check (float 1e-9))
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Lin_expr                                                            *)

let test_expr_algebra () =
  let e = Lin_expr.(add (var 0) (var ~coef:2. 1)) in
  checkf "coef 0" 1. (Lin_expr.coef e 0);
  checkf "coef 1" 2. (Lin_expr.coef e 1);
  checkf "coef absent" 0. (Lin_expr.coef e 7);
  let e = Lin_expr.add_term e 0 (-1.) in
  checkb "zero coefficient dropped" true (Lin_expr.vars e = [ 1 ]);
  let s = Lin_expr.scale 3. e in
  checkf "scaled" 6. (Lin_expr.coef s 1);
  checkb "scale by zero is zero" true
    (Lin_expr.is_constant (Lin_expr.scale 0. s));
  let d = Lin_expr.sub s s in
  checkb "x - x = 0" true (Lin_expr.is_constant d);
  checkf "constant of diff" 0. (Lin_expr.constant d)

let test_expr_eval () =
  let e = Lin_expr.of_terms ~constant:5. [ (0, 2.); (3, -1.) ] in
  checkf "eval" (5. +. 4. -. 3.)
    (Lin_expr.eval e (fun x -> if x = 0 then 2. else 3.));
  checkf "complement eval" 0.25
    (Lin_expr.eval (Lin_expr.complement 2) (fun _ -> 0.75))

let test_expr_of_terms_accumulates () =
  let e = Lin_expr.of_terms [ (1, 2.); (1, 3.) ] in
  checkf "accumulated" 5. (Lin_expr.coef e 1)

let test_expr_map_vars () =
  let e = Lin_expr.of_terms [ (0, 1.); (1, 2.) ] in
  let m = Lin_expr.map_vars (fun x -> x + 10) e in
  checkf "mapped" 2. (Lin_expr.coef m 11);
  match Lin_expr.map_vars (fun _ -> 5) e with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "non-injective mapping must be rejected"

let prop_expr_add_commutes =
  let arb =
    QCheck.make
      QCheck.Gen.(
        list_size (int_range 0 8)
          (pair (int_range 0 5) (float_range (-4.) 4.)))
      ~print:QCheck.Print.(list (pair int float))
  in
  QCheck.Test.make ~name:"expression addition commutes (eval)" ~count:200
    (QCheck.pair arb arb) (fun (t1, t2) ->
      let e1 = Lin_expr.of_terms t1 and e2 = Lin_expr.of_terms t2 in
      let v x = float_of_int ((x * 7) mod 3) in
      Float.abs
        (Lin_expr.eval (Lin_expr.add e1 e2) v
        -. Lin_expr.eval (Lin_expr.add e2 e1) v)
      < 1e-9)

(* ------------------------------------------------------------------ *)
(* Model                                                               *)

let test_model_vars_bounds () =
  let m = Model.create () in
  let x = Model.bool_var ~name:"x" m in
  let y = Model.add_var m (Model.Integer (-2, 5)) in
  let z = Model.add_var m (Model.Continuous (0., 10.)) in
  check_int "count" 3 (Model.var_count m);
  Alcotest.(check string) "name" "x" (Model.name_of m x);
  checkf "int lb" (-2.) (Model.lower_bound m y);
  checkf "cont ub" 10. (Model.upper_bound m z);
  checkb "not pure boolean" false (Model.is_pure_boolean m);
  Model.fix m x 1.;
  checkf "fixed lb" 1. (Model.lower_bound m x);
  (match Model.fix m x 0. with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "fix outside narrowed bounds must fail");
  match Model.fix m y 2.5 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "non-integral fix must fail"

let test_model_constraints_and_feasibility () =
  let m = Model.create () in
  let x = Model.bool_var m and y = Model.bool_var m in
  Model.add_constraint m Lin_expr.(add (var x) (var y)) Model.Ge 1.;
  Model.set_objective m (Lin_expr.var x);
  check_int "one row" 1 (Model.constraint_count m);
  checkb "feasible" true (Model.is_feasible m (fun _ -> 1.));
  checkb "infeasible" false (Model.is_feasible m (fun _ -> 0.));
  checkb "violations found" true
    (List.length (Model.violated_constraints m (fun _ -> 0.)) = 1);
  checkf "objective" 1. (Model.objective_value m (fun _ -> 1.))

let test_model_copy_isolation () =
  let m = Model.create () in
  let x = Model.bool_var m in
  let m' = Model.copy m in
  Model.fix m' x 1.;
  Model.add_constraint m' (Lin_expr.var x) Model.Le 0.;
  checkf "original bounds untouched" 0. (Model.lower_bound m x);
  check_int "original rows untouched" 0 (Model.constraint_count m)

let test_boolean_clause () =
  let m = Model.create () in
  let x = Model.bool_var m and y = Model.bool_var m in
  Model.add_boolean_clause m ~pos:[ x ] ~neg:[ y ];
  (* clause x ∨ ¬y: falsified only by x=0, y=1 *)
  checkb "00" true (Model.is_feasible m (fun _ -> 0.));
  checkb "x=0 y=1" false
    (Model.is_feasible m (fun v -> if v = y then 1. else 0.));
  checkb "11" true (Model.is_feasible m (fun _ -> 1.))

(* ------------------------------------------------------------------ *)
(* Bool_encode semantics: for every assignment of the inputs, the encoded
   output variable is forced to the logical value.                     *)

let assignments k =
  List.init (1 lsl k) (fun mask ->
      Array.init k (fun i -> mask land (1 lsl i) <> 0))

let force_and_solve m inputs values output =
  (* fix inputs, minimize output, then maximize: both must equal logic *)
  let sub = Model.copy m in
  Array.iteri
    (fun i x -> Model.fix sub x (if values.(i) then 1. else 0.))
    inputs;
  let solve_with obj =
    Model.set_objective sub obj;
    match Milp.Brute.solve sub with
    | Milp.Brute.Optimal { solution; _ } -> solution.(output)
    | Milp.Brute.Infeasible -> Alcotest.fail "encoding infeasible"
  in
  let low = solve_with (Lin_expr.var output) in
  let high = solve_with (Lin_expr.neg (Lin_expr.var output)) in
  (low, high)

let test_or_encoding () =
  List.iter
    (fun k ->
      let m = Model.create () in
      let inputs = Model.bool_vars m k in
      let y = Bool_encode.or_var m (Array.to_list inputs) in
      List.iter
        (fun values ->
          let expected = Array.exists Fun.id values in
          let low, high = force_and_solve m inputs values y in
          checkf "or min" (if expected then 1. else 0.) low;
          checkf "or max" (if expected then 1. else 0.) high)
        (assignments k))
    [ 0; 1; 2; 3 ]

let test_and_encoding () =
  List.iter
    (fun k ->
      let m = Model.create () in
      let inputs = Model.bool_vars m k in
      let y = Bool_encode.and_var m (Array.to_list inputs) in
      List.iter
        (fun values ->
          let expected = Array.for_all Fun.id values in
          let low, high = force_and_solve m inputs values y in
          checkf "and min" (if expected then 1. else 0.) low;
          checkf "and max" (if expected then 1. else 0.) high)
        (assignments k))
    [ 0; 1; 2; 3 ]

let test_count_channel () =
  let k = 4 in
  let m = Model.create () in
  let inputs = Model.bool_vars m k in
  let ind = Bool_encode.count_channel m (Array.to_list inputs) in
  check_int "k+1 indicators" (k + 1) (Array.length ind);
  List.iter
    (fun values ->
      let count =
        Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 values
      in
      Array.iteri
        (fun j x ->
          let expected = if j = count then 1. else 0. in
          let low, high = force_and_solve m inputs values x in
          checkf (Printf.sprintf "ind %d min" j) expected low;
          checkf (Printf.sprintf "ind %d max" j) expected high)
        ind)
    (assignments k)

let test_implication_encodings () =
  let m = Model.create () in
  let a = Model.bool_var m and b = Model.bool_var m in
  Bool_encode.implies m a b;
  let value a' b' v = if v = a then a' else b' in
  checkb "1→0 violated" false (Model.is_feasible m (value 1. 0.));
  checkb "1→1 ok" true (Model.is_feasible m (value 1. 1.));
  checkb "0→0 ok" true (Model.is_feasible m (value 0. 0.))

let test_cardinality () =
  let m = Model.create () in
  let xs = Array.to_list (Model.bool_vars m 4) in
  Bool_encode.at_most_k m xs 2;
  Bool_encode.at_least_k m xs 1;
  let assign n v = if v < n then 1. else 0. in
  checkb "0 chosen violates at-least" false (Model.is_feasible m (assign 0));
  checkb "2 chosen ok" true (Model.is_feasible m (assign 2));
  checkb "3 chosen violates at-most" false (Model.is_feasible m (assign 3))

let test_indicators () =
  let m = Model.create () in
  let x = Model.add_var m (Model.Continuous (0., 10.)) in
  let y = Bool_encode.ge_indicator m (Lin_expr.var x) 5. ~big_m:10. in
  (* y = 1 → x ≥ 5 *)
  let value xv yv v = if v = x then xv else if v = y then yv else 0. in
  checkb "y=1, x=6 ok" true (Model.is_feasible m (value 6. 1.));
  checkb "y=1, x=2 violated" false (Model.is_feasible m (value 2. 1.));
  checkb "y=0, x=2 ok" true (Model.is_feasible m (value 2. 0.));
  let z = Bool_encode.le_indicator m (Lin_expr.var x) 5. ~big_m:10. in
  let value2 xv zv v = if v = x then xv else if v = z then zv else 0. in
  checkb "z=1, x=2 ok" true (Model.is_feasible m (value2 2. 1.));
  checkb "z=1, x=8 violated" false (Model.is_feasible m (value2 8. 1.))

(* ------------------------------------------------------------------ *)
(* Backend cross-validation                                            *)

(* Random pure-boolean models with mixed-sign coefficients. *)
let arb_bool_model =
  let gen =
    QCheck.Gen.(
      let* nvars = int_range 1 8 in
      let* nrows = int_range 0 6 in
      let* rows =
        list_repeat nrows
          (let* terms =
             list_size (int_range 1 4)
               (pair (int_range 0 (nvars - 1)) (int_range (-4) 4))
           in
           let* cmp = oneofl [ Model.Le; Model.Ge; Model.Eq ] in
           let* rhs = int_range (-3) 5 in
           return (terms, cmp, rhs))
      in
      let* obj =
        list_size (int_range 0 nvars)
          (pair (int_range 0 (nvars - 1)) (int_range (-5) 9))
      in
      return (nvars, rows, obj))
  in
  let print (nvars, rows, obj) =
    Printf.sprintf "nvars=%d rows=%d obj=%s" nvars (List.length rows)
      (String.concat ","
         (List.map (fun (x, c) -> Printf.sprintf "%d:%d" x c) obj))
  in
  QCheck.make gen ~print

let build_model (nvars, rows, obj) =
  let m = Model.create () in
  let _ = Model.bool_vars m nvars in
  List.iter
    (fun (terms, cmp, rhs) ->
      let expr =
        Lin_expr.of_terms
          (List.map (fun (x, c) -> (x, float_of_int c)) terms)
      in
      (* equality rows over random terms are almost always infeasible;
         keep them but loosen to ±1 window via two rows when Eq *)
      match cmp with
      | Model.Eq ->
          Model.add_constraint m expr Model.Le (float_of_int (rhs + 1));
          Model.add_constraint m expr Model.Ge (float_of_int (rhs - 1))
      | cmp -> Model.add_constraint m expr cmp (float_of_int rhs))
    rows;
  Model.set_objective m
    (Lin_expr.of_terms (List.map (fun (x, c) -> (x, float_of_int c)) obj));
  m

let outcomes_agree o1 o2 =
  match (o1, o2) with
  | Solver.Optimal { objective = a; _ }, Solver.Optimal { objective = b; _ }
    ->
      Float.abs (a -. b) < 1e-6
  | Solver.Infeasible, Solver.Infeasible -> true
  | _ -> false

let prop_backends_agree backend =
  QCheck.Test.make
    ~name:(Printf.sprintf "%s = brute force" (Solver.backend_name backend))
    ~count:150 arb_bool_model (fun spec ->
      let reference, _ =
        Solver.solve ~backend:Solver.Brute_force (build_model spec)
      in
      let tested, _ = Solver.solve ~backend (build_model spec) in
      outcomes_agree reference tested)

let prop_optimal_solution_is_feasible =
  QCheck.Test.make ~name:"pb optimum is feasible and matches objective"
    ~count:150 arb_bool_model (fun spec ->
      let m = build_model spec in
      match Solver.solve ~backend:Solver.Pseudo_boolean m with
      | Solver.Optimal { objective; solution }, _ ->
          Model.is_feasible m (fun x -> solution.(x))
          && Float.abs (Model.objective_value m (fun x -> solution.(x))
                        -. objective)
             < 1e-6
      | (Solver.Infeasible | Solver.Limit_reached _), _ -> true)

(* Wider PB-vs-brute models: up to 12 variables, rows dominated by
   clauses and cardinality constraints (the shape of learned clauses and
   LEARNCONS rows), and reliability-style rows whose coefficients are
   k·p^k, as in ILP-AR's Eq. 9.  A k·p^k row's right-hand side sits
   halfway between two distinct subset sums of its coefficients, so no
   assignment lands within a tolerance of the boundary and PB and brute
   force cannot disagree on rounding. *)
type wide_row =
  | Clause of (int * bool) list  (* (var, positive) *)
  | At_least of int list * int
  | At_most of int list * int
  | Reliability of (int * float) list * float  (* Σ k·p^k·x ≤ rhs *)
  | Linear of (int * int) list * Model.cmp * int

(* distinct subset sums, merging any two closer than 1e-5 *)
let subset_sums coefs =
  List.fold_left
    (fun sums c -> sums @ List.map (fun s -> s +. c) sums)
    [ 0. ] coefs
  |> List.sort Float.compare
  |> List.fold_left
       (fun acc s ->
         match acc with
         | prev :: _ when s -. prev < 1e-5 -> acc
         | _ -> s :: acc)
       []
  |> List.rev

let gen_wide_row nvars =
  QCheck.Gen.(
    let vars size = list_size (int_range 1 size) (int_range 0 (nvars - 1)) in
    frequency
      [ ( 4,
          let* lits = list_size (int_range 1 5) (pair (int_range 0 (nvars - 1)) bool) in
          return (Clause lits) );
        ( 2,
          let* xs = vars 6 in
          let* k = int_range 1 (List.length xs) in
          return (At_least (xs, k)) );
        ( 2,
          let* xs = vars 6 in
          let* k = int_range 0 (List.length xs - 1) in
          return (At_most (xs, k)) );
        ( 2,
          let* terms =
            list_size (int_range 1 5)
              (triple (int_range 0 (nvars - 1)) (int_range 1 4)
                 (oneofl [ 0.5; 0.3; 0.2; 0.1; 0.05 ]))
          in
          let terms =
            List.map
              (fun (x, k, p) -> (x, float_of_int k *. (p ** float_of_int k)))
              terms
          in
          let sums = Array.of_list (subset_sums (List.map snd terms)) in
          let* i = int_range 0 (max 0 (Array.length sums - 2)) in
          let rhs =
            if Array.length sums < 2 then sums.(0) +. 0.5
            else (sums.(i) +. sums.(i + 1)) /. 2.
          in
          return (Reliability (terms, rhs)) );
        ( 1,
          let* terms =
            list_size (int_range 1 4) (pair (int_range 0 (nvars - 1)) (int_range (-4) 4))
          in
          let* cmp = oneofl [ Model.Le; Model.Ge ] in
          let* rhs = int_range (-3) 5 in
          return (Linear (terms, cmp, rhs)) ) ])

let add_wide_row m = function
  | Clause lits ->
      let negatives = List.length (List.filter (fun (_, pos) -> not pos) lits) in
      Model.add_constraint m
        (Lin_expr.of_terms
           (List.map (fun (x, pos) -> (x, if pos then 1. else -1.)) lits))
        Model.Ge
        (float_of_int (1 - negatives))
  | At_least (xs, k) -> Bool_encode.at_least_k m xs k
  | At_most (xs, k) -> Bool_encode.at_most_k m xs k
  | Reliability (terms, rhs) ->
      Model.add_constraint m (Lin_expr.of_terms terms) Model.Le rhs
  | Linear (terms, cmp, rhs) ->
      Model.add_constraint m
        (Lin_expr.of_terms (List.map (fun (x, c) -> (x, float_of_int c)) terms))
        cmp (float_of_int rhs)

(* (nvars, rows, appended rows, objective); costs include halves so the
   objective is not always integral *)
let arb_wide_model =
  let gen =
    QCheck.Gen.(
      let* nvars = int_range 1 12 in
      let* rows = list_size (int_range 0 10) (gen_wide_row nvars) in
      let* extra = list_size (int_range 1 5) (gen_wide_row nvars) in
      let* obj =
        list_size (int_range 0 nvars)
          (pair (int_range 0 (nvars - 1))
             (map (fun c -> float_of_int c /. 2.) (int_range (-6) 18)))
      in
      return (nvars, rows, extra, obj))
  in
  let show_row = function
    | Clause lits ->
        "clause "
        ^ String.concat " "
            (List.map (fun (x, pos) -> (if pos then "" else "~") ^ string_of_int x) lits)
    | At_least (xs, k) ->
        Printf.sprintf "atleast %d of %s" k
          (String.concat " " (List.map string_of_int xs))
    | At_most (xs, k) ->
        Printf.sprintf "atmost %d of %s" k
          (String.concat " " (List.map string_of_int xs))
    | Reliability (terms, rhs) ->
        Printf.sprintf "%s <= %h"
          (String.concat " + "
             (List.map (fun (x, c) -> Printf.sprintf "%h*x%d" c x) terms))
          rhs
    | Linear (terms, cmp, rhs) ->
        Printf.sprintf "%s %s %d"
          (String.concat " + "
             (List.map (fun (x, c) -> Printf.sprintf "%d*x%d" c x) terms))
          (match cmp with Model.Le -> "<=" | Model.Ge -> ">=" | Model.Eq -> "=")
          rhs
  in
  let print (nvars, rows, extra, obj) =
    Printf.sprintf "nvars=%d\nrows:\n%s\nappended:\n%s\nobj=%s" nvars
      (String.concat "\n" (List.map show_row rows))
      (String.concat "\n" (List.map show_row extra))
      (String.concat ","
         (List.map (fun (x, c) -> Printf.sprintf "%d:%g" x c) obj))
  in
  QCheck.make gen ~print

let build_wide nvars rows obj =
  let m = Model.create () in
  let _ = Model.bool_vars m nvars in
  List.iter (add_wide_row m) rows;
  Model.set_objective m (Lin_expr.of_terms obj);
  m

let pb_agrees o1 o2 =
  match (o1, o2) with
  | Milp.Pb_solver.Optimal { objective = a; _ },
    Milp.Pb_solver.Optimal { objective = b; _ } ->
      Float.abs (a -. b) < 1e-6
  | Milp.Pb_solver.Infeasible, Milp.Pb_solver.Infeasible -> true
  | _ -> false

let of_brute = function
  | Milp.Brute.Optimal { objective; solution } ->
      Milp.Pb_solver.Optimal { objective; solution }
  | Milp.Brute.Infeasible -> Milp.Pb_solver.Infeasible

let prop_pb_wide_matches_brute =
  QCheck.Test.make ~name:"pb = brute force (12 vars, k·p^k, clauses)"
    ~count:300 arb_wide_model (fun (nvars, rows, extra, obj) ->
      let m = build_wide nvars (rows @ extra) obj in
      pb_agrees (of_brute (Milp.Brute.solve m)) (fst (Milp.Pb_solver.solve m)))

(* A session solve, rows appended to its model, and a re-solve (with the
   first optimum as a proven floor, as ILP-MR passes it): the re-solve
   must equal a scratch solve of the grown model, and brute force. *)
let prop_pb_session_resolve_matches_scratch =
  QCheck.Test.make ~name:"pb session re-solve = scratch solve of grown model"
    ~count:300 arb_wide_model (fun (nvars, rows, extra, obj) ->
      let m = build_wide nvars rows obj in
      let sess = Milp.Pb_solver.Session.create m in
      let first, _ = Milp.Pb_solver.Session.solve sess in
      List.iter (add_wide_row m) extra;
      Milp.Pb_solver.Session.add_rows sess;
      let lower_bound =
        match first with
        | Milp.Pb_solver.Optimal { objective; _ } -> objective
        | _ -> neg_infinity
      in
      let again, _ = Milp.Pb_solver.Session.solve ~lower_bound sess in
      let scratch, _ = Milp.Pb_solver.solve (build_wide nvars (rows @ extra) obj) in
      pb_agrees again scratch
      && pb_agrees (of_brute (Milp.Brute.solve m)) again)

let test_pb_respects_fixed_vars () =
  let m = Model.create () in
  let x = Model.bool_var m and y = Model.bool_var m in
  Model.add_constraint m Lin_expr.(add (var x) (var y)) Model.Ge 1.;
  Model.set_objective m Lin_expr.(add (var ~coef:1. x) (var ~coef:2. y));
  Model.fix m x 0.;
  match Solver.solve m with
  | Solver.Optimal { objective; solution }, _ ->
      checkf "forced y" 2. objective;
      checkf "x stays 0" 0. solution.(x)
  | _ -> Alcotest.fail "expected optimal"

let test_empty_model () =
  let m = Model.create () in
  match Solver.solve m with
  | Solver.Optimal { objective; _ }, _ -> checkf "zero objective" 0. objective
  | _ -> Alcotest.fail "empty model is trivially optimal"

let test_all_vars_fixed () =
  let m = Model.create () in
  let x = Model.bool_var m and y = Model.bool_var m in
  Model.fix m x 1.;
  Model.fix m y 0.;
  Model.add_constraint m Lin_expr.(add (var x) (var y)) Model.Ge 1.;
  Model.set_objective m Lin_expr.(add (var ~coef:3. x) (var ~coef:5. y));
  match Solver.solve m with
  | Solver.Optimal { objective; solution }, _ ->
      checkf "objective" 3. objective;
      checkf "x" 1. solution.(x);
      checkf "y" 0. solution.(y)
  | _ -> Alcotest.fail "fully fixed feasible model"

let test_negative_objective_coefficients () =
  (* maximization in disguise: min -x - 2y st x + y ≤ 1 → pick y *)
  let m = Model.create () in
  let x = Model.bool_var m and y = Model.bool_var m in
  Model.add_constraint m Lin_expr.(add (var x) (var y)) Model.Le 1.;
  Model.set_objective m
    Lin_expr.(add (var ~coef:(-1.) x) (var ~coef:(-2.) y));
  match Solver.solve m with
  | Solver.Optimal { objective; solution }, _ ->
      checkf "objective" (-2.) objective;
      checkf "y chosen" 1. solution.(y)
  | _ -> Alcotest.fail "expected optimal"

let test_equality_row_propagation () =
  let m = Model.create () in
  let xs = Model.bool_vars m 3 in
  Bool_encode.exactly_k m (Array.to_list xs) 3;
  Model.set_objective m
    (Lin_expr.of_terms (Array.to_list (Array.map (fun x -> (x, 1.)) xs)));
  match Solver.solve m with
  | Solver.Optimal { objective; _ }, stats ->
      checkf "all forced" 3. objective;
      checkb "no search needed" true (stats.Solver.nodes <= 3)
  | _ -> Alcotest.fail "expected optimal"

let test_time_limit_returns () =
  (* a deliberately large model: the solver must respect the limit *)
  let m = Model.create () in
  let xs = Model.bool_vars m 80 in
  (* pairwise conflicting knapsack-ish rows make it non-trivial *)
  Array.iteri
    (fun i _ ->
      if i > 0 then
        Model.add_constraint m
          Lin_expr.(add (var xs.(i)) (var xs.(i - 1)))
          Model.Le 1.)
    xs;
  Model.add_constraint m
    (Lin_expr.of_terms
       (Array.to_list (Array.mapi (fun i x -> (x, 1. +. float_of_int (i mod 7))) xs)))
    Model.Ge 40.;
  Model.set_objective m
    (Lin_expr.of_terms
       (Array.to_list (Array.mapi (fun i x -> (x, float_of_int (1 + (i mod 13)))) xs)));
  match Solver.solve ~max_nodes:50 m with
  | Solver.Limit_reached _, _ | Solver.Optimal _, _ | Solver.Infeasible, _ ->
      ()

(* The solver takes pure 0-1 models only: an integer variable is typed
   bad input, raised before any search (and by session construction). *)
let test_mixed_model_rejected () =
  let m = Model.create () in
  let x = Model.bool_var m in
  let n = Model.add_var m (Model.Integer (0, 3)) in
  Model.add_constraint m Lin_expr.(add (var x) (var n)) Model.Ge 1.;
  Model.set_objective m Lin_expr.(add (var x) (var n));
  let rejected f =
    match f () with
    | _ -> false
    | exception
        Archex_resilience.Error.E (Archex_resilience.Error.Invalid_input _)
      ->
        true
  in
  List.iter
    (fun backend ->
      checkb
        (Solver.backend_name backend ^ " rejects a mixed model")
        true
        (rejected (fun () -> ignore (Solver.solve ~backend m))))
    [ Solver.Pseudo_boolean; Solver.Brute_force ];
  checkb "a session over a mixed model is rejected" true
    (rejected (fun () -> ignore (Solver.make_session m)))

(* ------------------------------------------------------------------ *)
(* Objective lower bound                                               *)

let prop_obj_bound_is_valid =
  QCheck.Test.make ~name:"Obj_bound.lower_bound <= brute optimum" ~count:150
    arb_bool_model (fun spec ->
      let m = build_model spec in
      let bound = Milp.Obj_bound.lower_bound m in
      match Milp.Brute.solve m with
      | Milp.Brute.Optimal { objective; _ } -> bound <= objective +. 1e-6
      | Milp.Brute.Infeasible -> true)

(* two disjoint at-least-2 rows over costed variables: the packed bound
   is the two cheapest of each group, 3+5 and 7+10 *)
let disjoint_rows_model () =
  let m = Model.create () in
  let a = Model.bool_vars m 3 and b = Model.bool_vars m 3 in
  Bool_encode.at_least_k m (Array.to_list a) 2;
  Bool_encode.at_least_k m (Array.to_list b) 2;
  Model.set_objective m
    (Lin_expr.of_terms
       [ (a.(0), 5.); (a.(1), 3.); (a.(2), 8.);
         (b.(0), 10.); (b.(1), 20.); (b.(2), 7.) ]);
  (m, a)

let test_obj_bound_packs_disjoint_rows () =
  let m, _ = disjoint_rows_model () in
  checkf "packed bound" 25. (Milp.Obj_bound.lower_bound m);
  let rows = Model.constraint_count m in
  checkb "nontrivial returns the bound" true
    (Milp.Obj_bound.nontrivial m = Some 25.);
  check_int "no row added" rows (Model.constraint_count m)

(* Solver.solve never mutates the caller's model: not on a scratch solve
   with a finite Obj_bound (whose main search runs on the caller's model
   when the probe at the bound fails), and not on a session solve. *)
let test_solve_leaves_model_unchanged () =
  let shape m =
    ( Model.var_count m,
      Model.constraint_count m,
      Lin_expr.terms (Model.objective m) )
  in
  let unchanged what m optimum f =
    let before = shape m in
    (match f () with
    | Solver.Optimal { objective; _ }, _ -> checkf what optimum objective
    | _ -> Alcotest.failf "%s: expected an optimum" what);
    checkb (what ^ " leaves the model unchanged") true (before = shape m)
  in
  let m, a = disjoint_rows_model () in
  checkb "finite Obj_bound" true (Milp.Obj_bound.nontrivial m <> None);
  unchanged "scratch solve, probe hit" m 25. (fun () -> Solver.solve m);
  (* forbid the cheapest pair of the first group: the bound 25 is no
     longer reached (optimum 3+8+7+10 = 28), so the probe fails *)
  Model.add_constraint m Lin_expr.(add (var a.(0)) (var a.(1))) Model.Le 1.;
  unchanged "scratch solve, probe miss" m 28. (fun () -> Solver.solve m);
  let sess = Solver.make_session m in
  unchanged "session solve" m 28. (fun () -> Solver.solve ~session:sess m)

let test_obj_bound_overlapping_not_double_counted () =
  let m = Model.create () in
  let xs = Model.bool_vars m 3 in
  (* two rows over the same support: only one may be counted *)
  Bool_encode.at_least_k m (Array.to_list xs) 1;
  Bool_encode.at_least_k m (Array.to_list xs) 2;
  Model.set_objective m
    (Lin_expr.of_terms [ (xs.(0), 4.); (xs.(1), 6.); (xs.(2), 9.) ]);
  checkf "counts the stronger row once" 10. (Milp.Obj_bound.lower_bound m)

(* ------------------------------------------------------------------ *)
(* Var_heap                                                            *)

let test_var_heap_orders_by_activity () =
  let h = Milp.Var_heap.create 5 in
  Milp.Var_heap.bump h 2 10.;
  Milp.Var_heap.bump h 4 20.;
  Milp.Var_heap.bump h 0 15.;
  Alcotest.(check (option int)) "max" (Some 4) (Milp.Var_heap.pop_max h);
  Alcotest.(check (option int)) "next" (Some 0) (Milp.Var_heap.pop_max h);
  checkb "popped not member" false (Milp.Var_heap.mem h 4);
  Milp.Var_heap.push h 4;
  checkb "pushed back" true (Milp.Var_heap.mem h 4);
  Alcotest.(check (option int)) "re-popped max" (Some 4)
    (Milp.Var_heap.pop_max h)

let test_var_heap_drains () =
  let h = Milp.Var_heap.create 3 in
  let seen = ref [] in
  let rec drain () =
    match Milp.Var_heap.pop_max h with
    | Some v -> seen := v :: !seen; drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check int) "all three" 3 (List.length !seen);
  Alcotest.(check (option int)) "empty" None (Milp.Var_heap.pop_max h)

(* ------------------------------------------------------------------ *)
(* LP format                                                           *)

let test_lp_format_mentions_everything () =
  let m = Model.create () in
  let x = Model.bool_var ~name:"pick me" m in
  let y = Model.add_var ~name:"level" m (Model.Integer (0, 3)) in
  Model.add_constraint ~name:"cap" m Lin_expr.(add (var x) (var y)) Model.Le
    2.;
  Model.set_objective m (Lin_expr.var x);
  let text = Milp.Lp_format.to_string m in
  checkb "has Minimize" true (String.length text > 0);
  checkb "mentions Binary" true
    (String.split_on_char '\n' text |> List.exists (fun l -> l = "Binary"));
  checkb "mentions General" true
    (String.split_on_char '\n' text |> List.exists (fun l -> l = "General"));
  checkb "sanitized name" true
    (String.split_on_char '\n' text
    |> List.exists (fun l ->
           try ignore (String.index l 'c'); String.length l > 0
           with Not_found -> false))

(* ------------------------------------------------------------------ *)
(* Golden search trajectories                                          *)

(* The PB core's decision, propagation, conflict, learning and restart
   counts on three fixed models, recorded before the hot path's data
   layout was rebuilt.  Node order alone moves PB effort by one to two
   orders of magnitude, so a layout change must reproduce the search
   exactly: any reordering of propagation, decisions or learning shows up
   here as a changed count. *)

module Pb_solver = Milp.Pb_solver

(* [pigeons] pigeons into [holes] holes: every pigeon in some hole, no
   hole holding two, minimizing the number of placements.  Infeasible for
   pigeons > holes, and provable only by search: 2.6k conflicts and 14
   restarts, enough to pass through learned-clause database reduction. *)
let pigeonhole ~pigeons ~holes =
  let m = Model.create () in
  let x = Array.init pigeons (fun _ -> Model.bool_vars m holes) in
  for p = 0 to pigeons - 1 do
    Model.add_constraint m
      (Lin_expr.of_terms (Array.to_list (Array.map (fun v -> (v, 1.)) x.(p))))
      Model.Ge 1.
  done;
  for h = 0 to holes - 1 do
    Model.add_constraint m
      (Lin_expr.of_terms (List.init pigeons (fun p -> (x.(p).(h), 1.))))
      Model.Le 1.
  done;
  Model.set_objective m
    (Lin_expr.of_terms
       (List.concat_map
          (fun row -> Array.to_list (Array.map (fun v -> (v, 1.)) row))
          (Array.to_list x)));
  m

type trajectory = {
  verdict : string;
  decisions : int;
  propagations : int;
  conflicts : int;
  learned : int;
  restarts : int;
}

let trajectory m =
  let outcome, (s : Pb_solver.stats) = Pb_solver.solve m in
  let verdict =
    match outcome with
    | Pb_solver.Optimal { objective; _ } -> Printf.sprintf "optimal %g" objective
    | Pb_solver.Infeasible -> "infeasible"
    | Pb_solver.Limit_reached _ -> "limit"
  in
  { verdict;
    decisions = s.decisions;
    propagations = s.propagations;
    conflicts = s.conflicts;
    learned = s.learned;
    restarts = s.restarts }

let check_trajectory name expected m =
  let got = trajectory m in
  let show t =
    Printf.sprintf
      "%s: decisions=%d propagations=%d conflicts=%d learned=%d restarts=%d"
      t.verdict t.decisions t.propagations t.conflicts t.learned t.restarts
  in
  Alcotest.(check string) name (show expected) (show got)

let test_golden_pigeonhole () =
  check_trajectory "pigeonhole 10->9"
    { verdict = "infeasible";
      decisions = 7341;
      propagations = 71340;
      conflicts = 2613;
      learned = 2612;
      restarts = 14 }
    (pigeonhole ~pigeons:10 ~holes:9)

(* the first model of ILP-MR on the paper's base EPS: the GENILP encoding
   before any LEARNCONS row *)
let test_golden_mr_base () =
  let enc = Archex.Gen_ilp.encode (Eps.Eps_template.base ()).template in
  check_trajectory "base EPS, first ILP-MR model"
    { verdict = "optimal 13007";
      decisions = 66;
      propagations = 982;
      conflicts = 43;
      learned = 42;
      restarts = 0 }
    (Archex.Gen_ilp.model enc)

(* the monolithic ILP-AR model of the g = 5 EPS (|V| = 25) at r* = 2e-6,
   whose reliability rows carry non-integral k·p^k coefficients *)
let test_golden_ar_g5 () =
  let enc, _ =
    Archex.Ilp_ar.compile (Eps.Eps_template.make ~generators:5).template
      ~r_star:2e-6
  in
  check_trajectory "g = 5 ILP-AR model"
    { verdict = "optimal 21010";
      decisions = 3237;
      propagations = 60991;
      conflicts = 1881;
      learned = 1880;
      restarts = 12 }
    (Archex.Gen_ilp.model enc)

(* A session across ILP-MR iterations (base EPS, r* = 2e-6, four
   iterations): covers the carried clause database, [purge_volatile] and
   [sync] of appended LEARNCONS rows, and the per-solve restart reset. *)
let test_golden_mr_session () =
  match Archex.Ilp_mr.run ~incremental:true (Eps.Eps_template.base ()).template
          ~r_star:2e-6
  with
  | Archex.Synthesis.Synthesized (arch, trace, _) ->
      let sum f = List.fold_left (fun acc it -> acc + f it) 0 trace in
      let show (cost, iterations, decisions, propagations, conflicts) =
        Printf.sprintf
          "cost=%g iterations=%d decisions=%d propagations=%d conflicts=%d"
          cost iterations decisions propagations conflicts
      in
      Alcotest.(check string) "incremental ILP-MR, base EPS, r* = 2e-6"
        (show (20008., 4, 2381, 36149, 1584))
        (show
           ( arch.Archex.Synthesis.cost,
             List.length trace,
             sum (fun it -> it.Archex.Ilp_mr.stats.Solver.nodes),
             sum (fun it -> it.Archex.Ilp_mr.stats.Solver.propagations),
             sum (fun it -> it.Archex.Ilp_mr.stats.Solver.conflicts) ))
  | Archex.Synthesis.Unfeasible _ -> Alcotest.fail "expected a synthesis"

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  let prop t = QCheck_alcotest.to_alcotest t in
  Alcotest.run "milp"
    [ ( "lin_expr",
        [ quick "algebra" test_expr_algebra;
          quick "eval" test_expr_eval;
          quick "of_terms accumulates" test_expr_of_terms_accumulates;
          quick "map_vars" test_expr_map_vars;
          prop prop_expr_add_commutes ] );
      ( "model",
        [ quick "variables and bounds" test_model_vars_bounds;
          quick "constraints and feasibility"
            test_model_constraints_and_feasibility;
          quick "copy isolation" test_model_copy_isolation;
          quick "boolean clause" test_boolean_clause ] );
      ( "bool_encode",
        [ quick "or" test_or_encoding;
          quick "and" test_and_encoding;
          quick "count channel (Eqs. 10-11)" test_count_channel;
          quick "implication" test_implication_encodings;
          quick "cardinality" test_cardinality;
          quick "big-M indicators" test_indicators ] );
      ( "backends",
        [ prop (prop_backends_agree Solver.Pseudo_boolean);
          prop prop_optimal_solution_is_feasible;
          prop prop_pb_wide_matches_brute;
          prop prop_pb_session_resolve_matches_scratch;
          quick "fixed variables respected" test_pb_respects_fixed_vars;
          quick "empty model" test_empty_model;
          quick "all variables fixed" test_all_vars_fixed;
          quick "negative objective coefficients"
            test_negative_objective_coefficients;
          quick "equality rows propagate" test_equality_row_propagation;
          quick "node limit returns" test_time_limit_returns;
          quick "mixed model rejected" test_mixed_model_rejected;
          quick "solve leaves the model unchanged"
            test_solve_leaves_model_unchanged ] );
      ( "obj_bound",
        [ prop prop_obj_bound_is_valid;
          quick "packs disjoint rows" test_obj_bound_packs_disjoint_rows;
          quick "no double counting on overlap"
            test_obj_bound_overlapping_not_double_counted ] );
      ( "golden",
        [ quick "pigeonhole 10->9" test_golden_pigeonhole;
          quick "base EPS first ILP-MR model" test_golden_mr_base;
          quick "g = 5 ILP-AR model" test_golden_ar_g5;
          quick "incremental ILP-MR session" test_golden_mr_session ] );
      ( "var_heap",
        [ quick "orders by activity" test_var_heap_orders_by_activity;
          quick "drains completely" test_var_heap_drains ] );
      ( "lp_format",
        [ quick "sections present" test_lp_format_mentions_everything ] ) ]

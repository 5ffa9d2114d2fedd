(* The benchmark's workloads: which instances each one synthesizes, with
   which algorithm, and the reference answers every run is checked
   against.  Why each workload exists is recorded in NOTES.md. *)

type algo = Mr  (** Ilp_mr.run, Algorithm 1 *) | Ar  (** Ilp_ar.run, Algorithm 3 *)

type case = {
  label : string;
  spec : Instances.spec;
  r_star : float;
  ref_cost : float;
  ref_iterations : int option;  (** ILP-MR iteration count *)
  ref_rows : int option;  (** ILP-AR compiled row count *)
}

type t = { name : string; algo : algo; cases : case list }

let mr label spec r_star ref_cost iterations =
  { label; spec; r_star; ref_cost; ref_iterations = Some iterations;
    ref_rows = None }

let loose_r_star = 2e-3

let all =
  [ { name = "mr_v15";
      algo = Mr;
      cases = [ mr "g3" (Instances.Family 3) 1e-6 19012. 4 ] };
    { name = "mr_base";
      algo = Mr;
      cases = [ mr "base" Instances.Base 3e-7 24008. 3 ] };
    { name = "ar_v25";
      algo = Ar;
      cases =
        [ { label = "g5";
            spec = Instances.Family 5;
            r_star = 2e-6;
            ref_cost = 21010.;
            ref_iterations = None;
            ref_rows = Some 2573 } ] };
    { name = "batch_loose";
      algo = Mr;
      cases =
        mr "base" Instances.Base loose_r_star 13007. 1
        :: List.map
             (fun (g, cost) ->
               mr (Printf.sprintf "g%d" g) (Instances.Family g) loose_r_star
                 cost 1)
             [ (2, 11005.); (3, 12005.); (4, 13007.); (5, 14010.);
               (6, 16011.); (7, 17012.); (8, 18014.) ] } ]

let find name = List.find_opt (fun w -> w.name = name) all

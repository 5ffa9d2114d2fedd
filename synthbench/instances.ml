(* The EPS templates the workloads synthesize.

   [build] returns the paper's own labelling.  [build ~nodes:true ~seed]
   rebuilds the same instance through the public constructors only
   (Template.create / add_candidate_edge and Eps_requirements.install),
   permuting the node ids and the candidate-edge insertion order; seed 0
   keeps both.

   The measured workloads do not relabel.  Node relabelling changes the
   variable order the PB solver sees, and on these models that moves the
   proof effort by one to two orders of magnitude (see NOTES.md), so a
   node-relabelled seed would be a different benchmark, not another sample
   of the same one.  Reordering the edges alone leaves the template
   unchanged, since the graph keeps its successors sorted.  The self-test
   checks that a relabelled instance keeps its sizes and reference cost. *)

open Eps
module Template = Archlib.Template

type spec = Base | Family of int  (** [Family g]: |V| = 5g *)

type t = {
  template : Template.t;
  layers : int array array;  (** GEN, ACB, TRU, DCB, LOAD node ids *)
}

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done

let original = function
  | Base -> Eps_template.base ()
  | Family g -> Eps_template.make ~generators:g

let layers_of (i : Eps_template.instance) =
  [| i.generators; i.ac_buses; i.rectifiers; i.dc_buses; i.loads |]

let relabel ~seed (orig : Eps_template.instance) =
  let src = orig.template in
  let n = Template.node_count src in
  let rng = Random.State.make [| 0x5eed; seed |] in
  (* perm.(old id) = new id *)
  let perm = Array.init n Fun.id in
  let edges = Array.of_list (Template.candidate_edges src) in
  if seed <> 0 then begin
    shuffle rng perm;
    shuffle rng edges
  end;
  let old_components = Template.components src in
  let components = Array.make n old_components.(0) in
  Array.iteri (fun old c -> components.(perm.(old)) <- c) old_components;
  let t = Template.create components in
  Array.iter
    (fun (u, v) ->
      Template.add_candidate_edge ~switch_cost:(Template.switch_cost src u v)
        t perm.(u) perm.(v))
    edges;
  let map = List.map (fun v -> perm.(v)) in
  Template.set_sources t (map (Template.sources src));
  Template.set_sinks t (map (Template.sinks src));
  Template.set_type_names t (Archlib.Library.type_names Eps_library.library);
  Option.iter (Template.set_type_chain t) (Template.type_chain src);
  let layers = Array.map (Array.map (fun v -> perm.(v))) (layers_of orig) in
  Eps_requirements.install t ~generators:layers.(0) ~ac_buses:layers.(1)
    ~rectifiers:layers.(2) ~dc_buses:layers.(3) ~loads:layers.(4);
  { template = t; layers }

let build ?(nodes = false) ?(seed = 0) spec =
  let orig = original spec in
  if nodes then relabel ~seed orig
  else { template = orig.template; layers = layers_of orig }

type t =
  | Timeout of { stage : string; elapsed : float; limit : float }
  | Node_budget of { stage : string; used : int; limit : int }
  | Memory_pressure of { stage : string; heap_words : int;
                         limit_words : int }
  | Bdd_blowup of { stage : string; nodes : int; limit : int }
  | Cancelled of { stage : string }
  | Invalid_input of string list
  | Internal of { stage : string; detail : string }

exception E of t

let code = function
  | Timeout _ -> "timeout"
  | Node_budget _ -> "node-budget"
  | Memory_pressure _ -> "memory-pressure"
  | Bdd_blowup _ -> "bdd-blowup"
  | Cancelled _ -> "cancelled"
  | Invalid_input _ -> "invalid-input"
  | Internal _ -> "internal"

let to_string = function
  | Timeout { stage; elapsed; limit } ->
      Printf.sprintf "%s: deadline exceeded (%.2fs elapsed, limit %.2fs)"
        stage elapsed limit
  | Node_budget { stage; used; limit } ->
      Printf.sprintf "%s: node budget exhausted (%d used, limit %d)" stage
        used limit
  | Memory_pressure { stage; heap_words; limit_words } ->
      Printf.sprintf
        "%s: memory pressure (heap %d words, watermark %d words)" stage
        heap_words limit_words
  | Bdd_blowup { stage; nodes; limit } ->
      Printf.sprintf "%s: BDD blowup (%d nodes, ceiling %d)" stage nodes
        limit
  | Cancelled { stage } ->
      Printf.sprintf "%s: cancelled (cooperative stop requested)" stage
  | Invalid_input violations ->
      Printf.sprintf "invalid input (%d violation(s)):\n  - %s"
        (List.length violations)
        (String.concat "\n  - " violations)
  | Internal { stage; detail } ->
      Printf.sprintf "%s: internal error: %s" stage detail

let pp ppf e = Format.pp_print_string ppf (to_string e)

let to_json e =
  let module J = Archex_obs.Json in
  let fields =
    match e with
    | Timeout { stage; elapsed; limit } ->
        [ ("stage", J.Str stage); ("elapsed", J.Num elapsed);
          ("limit", J.Num limit) ]
    | Node_budget { stage; used; limit } ->
        [ ("stage", J.Str stage);
          ("used", J.Num (float_of_int used));
          ("limit", J.Num (float_of_int limit)) ]
    | Memory_pressure { stage; heap_words; limit_words } ->
        [ ("stage", J.Str stage);
          ("heap_words", J.Num (float_of_int heap_words));
          ("limit_words", J.Num (float_of_int limit_words)) ]
    | Bdd_blowup { stage; nodes; limit } ->
        [ ("stage", J.Str stage);
          ("nodes", J.Num (float_of_int nodes));
          ("limit", J.Num (float_of_int limit)) ]
    | Cancelled { stage } -> [ ("stage", J.Str stage) ]
    | Invalid_input violations ->
        [ ("violations", J.Arr (List.map (fun v -> J.Str v) violations)) ]
    | Internal { stage; detail } ->
        [ ("stage", J.Str stage); ("detail", J.Str detail) ]
  in
  J.Obj (("error", J.Str (code e)) :: fields)

let is_budget = function
  | Timeout _ | Node_budget _ | Memory_pressure _ | Bdd_blowup _
  | Cancelled _ ->
      true
  | Invalid_input _ | Internal _ -> false

let guard ~stage f =
  match f () with
  | v -> Ok v
  | exception E e -> Error e
  | exception Invalid_argument msg -> Error (Invalid_input [ msg ])
  | exception Failure msg -> Error (Internal { stage; detail = msg })
  | exception Out_of_memory ->
      Error
        (Memory_pressure { stage; heap_words = max_int; limit_words = 0 })

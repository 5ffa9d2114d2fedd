type t = {
  act : float array;
  heap : int array;        (* heap of variables *)
  pos : int array;         (* position in heap, -1 when absent *)
  mutable size : int;
}

let create n =
  { act = Array.make n 0.;
    heap = Array.init n Fun.id;
    pos = Array.init n Fun.id;
    size = n }

let activity t v = t.act.(v)
let mem t v = t.pos.(v) >= 0

let swap t i j =
  let a = t.heap.(i) and b = t.heap.(j) in
  t.heap.(i) <- b;
  t.heap.(j) <- a;
  t.pos.(b) <- i;
  t.pos.(a) <- j

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if t.act.(t.heap.(i)) > t.act.(t.heap.(parent)) then begin
      swap t i parent;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let largest = ref i in
  if l < t.size && t.act.(t.heap.(l)) > t.act.(t.heap.(!largest)) then
    largest := l;
  if r < t.size && t.act.(t.heap.(r)) > t.act.(t.heap.(!largest)) then
    largest := r;
  if !largest <> i then begin
    swap t i !largest;
    sift_down t !largest
  end

let bump t v amount =
  t.act.(v) <- t.act.(v) +. amount;
  if t.pos.(v) >= 0 then sift_up t t.pos.(v)

let rescale t factor =
  Array.iteri (fun v a -> t.act.(v) <- a *. factor) t.act

let pop t =
  if t.size = 0 then -1
  else begin
    let v = t.heap.(0) in
    t.size <- t.size - 1;
    if t.size > 0 then begin
      let last = t.heap.(t.size) in
      t.heap.(0) <- last;
      t.pos.(last) <- 0
    end;
    t.pos.(v) <- -1;
    if t.size > 0 then sift_down t 0;
    v
  end

let pop_max t =
  let v = pop t in
  if v < 0 then None else Some v

let push t v =
  if t.pos.(v) < 0 then begin
    t.heap.(t.size) <- v;
    t.pos.(v) <- t.size;
    t.size <- t.size + 1;
    sift_up t t.pos.(v)
  end

(* Floyd heapify: restore the invariant over the queued prefix in O(n).
   [create]'s identity layout is only a heap because every activity is
   zero; a warm restore (persisted activities from a previous solve) needs
   a real rebuild — seeding via repeated [push] would sift each variable
   up through an array that is not yet a heap. *)
let rebuild t =
  for i = (t.size / 2) - 1 downto 0 do
    sift_down t i
  done

let of_activities ?mem acts =
  let n = Array.length acts in
  let t =
    { act = Array.copy acts;
      heap = Array.make (max n 1) 0;
      pos = Array.make (max n 1) (-1);
      size = 0 }
  in
  let wanted = match mem with None -> fun _ -> true | Some f -> f in
  for v = 0 to n - 1 do
    if wanted v then begin
      t.heap.(t.size) <- v;
      t.pos.(v) <- t.size;
      t.size <- t.size + 1
    end
  done;
  rebuild t;
  t

type 'a t = {
  q : 'a Queue.t;
  capacity : int;
  mu : Mutex.t;
  nonempty : Condition.t;
  mutable closed : bool;
}

let create ~capacity =
  {
    q = Queue.create ();
    capacity;
    mu = Mutex.create ();
    nonempty = Condition.create ();
    closed = false;
  }

let push_aux t x ~bounded =
  Mutex.lock t.mu;
  let ok = (not t.closed) && ((not bounded) || Queue.length t.q < t.capacity) in
  if ok then begin
    Queue.push x t.q;
    Condition.signal t.nonempty
  end;
  Mutex.unlock t.mu;
  ok

let try_push t x = push_aux t x ~bounded:true
let push_unbounded t x = push_aux t x ~bounded:false

let pop_batch t ~max =
  Mutex.lock t.mu;
  while Queue.is_empty t.q && not t.closed do
    Condition.wait t.nonempty t.mu
  done;
  let n = min max (Queue.length t.q) in
  let out = List.init n (fun _ -> Queue.pop t.q) in
  Mutex.unlock t.mu;
  out

let close t =
  Mutex.lock t.mu;
  t.closed <- true;
  Condition.broadcast t.nonempty;
  Mutex.unlock t.mu

/* Warm-edit input of the serve_warm_edit_adopts ctest: four leaf
 * functions with two counted loops each, called in sequence (no call
 * inside a loop, so the warm cache start is admitted). serve_edit_one_fn.c
 * differs from serve_edit_base.c in one loop bound of work2 only,
 * which keeps the code layout identical. */
int data[16] = {3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3};

int work0(int x) {
  int i;
  int s = x;
  for (i = 0; i < 4; i++) {
    s += data[(s + i) & 15];
  }
  for (i = 0; i < 4; i++) {
    s += data[(s ^ i) & 15];
  }
  return s;
}

int work1(int x) {
  int i;
  int s = x;
  for (i = 0; i < 5; i++) {
    s += data[(s + i) & 15];
  }
  for (i = 0; i < 5; i++) {
    s += data[(s ^ i) & 15];
  }
  return s;
}

int work2(int x) {
  int i;
  int s = x;
  for (i = 0; i < 4; i++) {
    s += data[(s + i) & 15];
  }
  for (i = 0; i < 6; i++) {
    s += data[(s ^ i) & 15];
  }
  return s;
}

int work3(int x) {
  int i;
  int s = x;
  for (i = 0; i < 5; i++) {
    s += data[(s + i) & 15];
  }
  for (i = 0; i < 7; i++) {
    s += data[(s ^ i) & 15];
  }
  return s;
}

int main(void) {
  int total = 1;
  total += work0(total);
  total += work1(total);
  total += work2(total);
  total += work3(total);
  return total;
}

#include <stdio.h>

int a;

int main(void) {
    int b = 0;
    unsigned d = 4u;
    unsigned c = 3u;
    a = a + a;
    c = d;
    printf("%d", a);
    return a;
}
